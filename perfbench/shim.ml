(* A timing shim around a quorum protocol.  Every quorum assembly is
   bracketed as the [plan_cache] layer and counted; [fork] returns a
   shimmed fork, so the replicas' catch-up instances are measured too. *)

module P = Quorum.Protocol

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable nones : int;
}

type t = { inner : P.t; acct : Acct.t; stats : stats }

let count st = function None -> st.nones <- st.nones + 1 | Some _ -> ()

module S = struct
  type nonrec t = t

  let name t = P.name t.inner
  let universe_size t = P.universe_size t.inner

  let read_quorum t ~alive ~rng =
    Acct.enter t.acct Acct.plan_cache;
    let q = P.read_quorum t.inner ~alive ~rng in
    Acct.leave t.acct;
    t.stats.reads <- t.stats.reads + 1;
    count t.stats q;
    q

  let write_quorum t ~alive ~rng =
    Acct.enter t.acct Acct.plan_cache;
    let q = P.write_quorum t.inner ~alive ~rng in
    Acct.leave t.acct;
    t.stats.writes <- t.stats.writes + 1;
    count t.stats q;
    q

  let read_levels t = P.read_levels t.inner

  let enumerate_read_quorums t =
    let (P.Dyn ((module M), x)) = t.inner in
    M.enumerate_read_quorums x

  let enumerate_write_quorums t =
    let (P.Dyn ((module M), x)) = t.inner in
    M.enumerate_write_quorums x

  let fork t = { t with inner = P.fork t.inner }
end

let wrap acct inner =
  let stats = { reads = 0; writes = 0; nones = 0 } in
  (P.pack (module S) { inner; acct; stats }, stats)
