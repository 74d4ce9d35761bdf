module Bitset = Dsutil.Bitset
module Network = Dsim.Network

type t = {
  alive : unit -> Bitset.t;
  observe : int -> unit;
  suspect : int -> unit;
}

let make ~alive ?(observe = ignore) ?(suspect = ignore) () =
  { alive; observe; suspect }

(* The set is rebuilt only when the network's topology generation moved
   (a crash, recovery, partition or heal); in between every call returns
   the same set. *)
let oracle ~net ~self ~n =
  let view = Bitset.create n and built = ref (-1) in
  let alive () =
    let g = Network.generation net in
    if g <> !built then begin
      Network.fill_reachable net ~self view;
      built := g
    end;
    view
  in
  { alive; observe = ignore; suspect = ignore }

let always_up ~n =
  let full = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.add full i
  done;
  { alive = (fun () -> full); observe = ignore; suspect = ignore }
