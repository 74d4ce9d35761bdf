module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Failure = Dsim.Failure
module Rng = Dsutil.Rng
module Protocol = Quorum.Protocol
module Shard_map = Arbitrary.Shard_map

type scenario = {
  proto : Protocol.t;
  n_clients : int;
  txns_per_client : int;
  keys_per_txn : int;
  key_space : int;
  latency : Latency.t;
  loss_rate : float;
  think_time : float;
  failures : Failure.entry list;
  seed : int;
  config : Txn.config;
  horizon : float;
  shards : int;
  strategy : Shard_map.strategy;
  atomic : bool;
  shard_failures : (int * Failure.entry list) list;
  shard_loss : (int * float) list;
}

let default_scenario ~proto =
  {
    proto;
    n_clients = 3;
    txns_per_client = 30;
    keys_per_txn = 2;
    key_space = 6;
    latency = Latency.Exponential 1.0;
    loss_rate = 0.0;
    think_time = 2.0;
    failures = [];
    seed = 42;
    config = Txn.default_config;
    horizon = 100_000.0;
    shards = 1;
    strategy = Shard_map.Hash;
    atomic = true;
    shard_failures = [];
    shard_loss = [];
  }

type report = {
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;
  conservation_ok : bool;
  cross_shard_txns : int;
  duration : float;
}

let value_of v = if v = "" then 0 else int_of_string v

(* Pick [count] distinct keys spreading over as many distinct shards as
   the map allows: shuffle the active shards, then draw one random key
   from each in round-robin, rejecting duplicates. *)
let pick_keys ~rng ~smap ~count =
  let shards = Array.of_list (Shard_map.active smap) in
  Rng.shuffle rng shards;
  let n_sh = Array.length shards in
  let chosen = ref [] in
  for i = 0 to count - 1 do
    let keys = Array.of_list (Shard_map.keys_of smap shards.(i mod n_sh)) in
    if Array.length keys > 0 then begin
      let attempts = ref 0 in
      let key = ref (Rng.pick rng keys) in
      while List.mem !key !chosen && !attempts < 50 do
        key := Rng.pick rng keys;
        incr attempts
      done;
      if not (List.mem !key !chosen) then chosen := !key :: !chosen
    end
  done;
  List.rev !chosen

let spans_shards smap keys =
  match keys with
  | [] -> false
  | first :: rest ->
    let s0 = Shard_map.route smap first in
    List.exists (fun k -> Shard_map.route smap k <> s0) rest

(* Read every chosen counter, write each back + 1, commit. *)
let increment_txn mgr ~keys k =
  let txn = Txn.begin_txn mgr in
  let rec step = function
    | [] -> Txn.commit txn k
    | key :: rest ->
      Txn.read txn ~key (function
        | None -> k (Txn.Aborted "read failed")
        | Some v ->
          Txn.write txn ~key ~value:(string_of_int (value_of v + 1));
          step rest)
  in
  step keys

let run ?obs scenario =
  if scenario.keys_per_txn > scenario.key_space then
    invalid_arg "Txn_harness.run: keys_per_txn exceeds key_space";
  let smap =
    Shard_map.create ~strategy:scenario.strategy ~shards:scenario.shards
      ~key_space:scenario.key_space ~seed:scenario.seed ()
  in
  let engine = Engine.create ~seed:scenario.seed () in
  (match obs with
  | None -> ()
  | Some o -> Obs.set_clock o (fun () -> Engine.now engine));
  let n = Protocol.universe_size scenario.proto in
  (* Same reasoning as Harness.run: every shard forks its own protocol so
     concurrent runs over one scenario template never share quorum-plan
     scratch state. *)
  let create_shard s =
    let proto = Protocol.fork scenario.proto in
    let loss_rate =
      Option.value (List.assoc_opt s scenario.shard_loss)
        ~default:scenario.loss_rate
    in
    let net =
      Network.create ~engine
        ~n:(n + scenario.n_clients + 1)
        ~latency:scenario.latency ~loss_rate ()
    in
    (match obs with None -> () | Some o -> Network.attach_obs net o);
    let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
    (net, proto)
  in
  let endpoints = Array.init scenario.shards create_shard in
  let locks = Lock_manager.create ~engine in
  let committed = ref 0 and aborted = ref 0 and uncertain = ref 0 in
  let partial_commits = ref 0 in
  let committed_increments = ref 0 and uncertain_increments = ref 0 in
  let cross_shard_txns = ref 0 in
  let route key = Shard_map.route smap key in
  let run_client idx =
    let mgr =
      Txn.create_sharded_manager ~site:(n + idx) ~endpoints ~route ~locks
        ~atomic:scenario.atomic ?obs ~config:scenario.config ()
    in
    let rng = Rng.split (Engine.rng engine) in
    let rec go remaining =
      if remaining > 0 then begin
        let keys = pick_keys ~rng ~smap ~count:scenario.keys_per_txn in
        if spans_shards smap keys then incr cross_shard_txns;
        increment_txn mgr ~keys (fun outcome ->
            (match outcome with
            | Txn.Committed ->
              incr committed;
              committed_increments := !committed_increments + List.length keys
            | Txn.Aborted _ ->
              incr aborted;
              if Txn.in_doubt outcome then begin
                incr uncertain;
                uncertain_increments :=
                  !uncertain_increments + List.length keys
              end
              else if Txn.partial outcome then
                (* Negative control: some shard legs applied, some did
                   not.  Deliberately NOT counted toward the uncertain
                   bound — the conservation check must catch the phantoms
                   these leave behind. *)
                incr partial_commits);
            Engine.schedule engine
              ~delay:(Rng.exponential rng scenario.think_time)
              (fun () -> go (remaining - 1)))
      end
    in
    go scenario.txns_per_client
  in
  for idx = 0 to scenario.n_clients - 1 do
    run_client idx
  done;
  Failure.apply (fst endpoints.(0)) scenario.failures;
  List.iter
    (fun (s, entries) ->
      if s < 0 || s >= scenario.shards then
        invalid_arg "Txn_harness.run: shard_failures index out of range";
      Failure.apply (fst endpoints.(s)) entries)
    scenario.shard_failures;
  Engine.run ~until:scenario.horizon engine;
  (* Heal every shard and tally the counters through quorum reads on
     fresh, uninstrumented endpoints. *)
  Array.iter
    (fun (net, _) ->
      for site = 0 to n - 1 do
        Network.recover net site
      done;
      Network.heal net;
      Network.set_loss_rate net 0.0)
    endpoints;
  let readers =
    Array.map
      (fun (net, proto) ->
        Quorum_rpc.create ~site:(n + scenario.n_clients) ~net ~proto ())
      endpoints
  in
  let observed = ref 0 in
  let pending = ref scenario.key_space in
  for key = 0 to scenario.key_space - 1 do
    Quorum_rpc.query readers.(route key) ~key (fun r ->
        (match r with
        | Some (_, v) -> observed := !observed + value_of v
        | None -> ());
        decr pending)
  done;
  Engine.run engine;
  assert (!pending = 0);
  let conservation_ok =
    !observed >= !committed_increments
    && !observed <= !committed_increments + !uncertain_increments
  in
  {
    committed = !committed;
    aborted = !aborted;
    uncertain = !uncertain;
    partial_commits = !partial_commits;
    committed_increments = !committed_increments;
    uncertain_increments = !uncertain_increments;
    observed_total = !observed;
    conservation_ok;
    cross_shard_txns = !cross_shard_txns;
    duration = Engine.now engine;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>transactions: %d committed, %d aborted (%d in-doubt)@,\
     increments: %d committed + %d uncertain; observed total %d@,\
     conservation: %s@]"
    r.committed r.aborted r.uncertain r.committed_increments
    r.uncertain_increments r.observed_total
    (if r.conservation_ok then "OK" else "VIOLATED")
