module Parallel = Eval.Parallel
module Chaos = Eval.Chaos
module Rng = Dsutil.Rng

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun i -> i * i) xs)
    (Parallel.map ~domains:3 (fun i -> i * i) xs)

let test_map_array () =
  let xs = Array.init 33 Fun.id in
  Alcotest.(check (array int))
    "array variant"
    (Array.map succ xs)
    (Parallel.map_array ~domains:4 succ xs)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Parallel.map ~domains:4 succ [ 1 ])

(* Tasks seeded from their index: any scheduling of domains must yield
   the same result list. *)
let test_determinism_across_domain_counts () =
  let task i =
    let rng = Rng.create (1000 + i) in
    let acc = ref 0 in
    for _ = 1 to 500 do
      acc := !acc + Rng.int rng 1_000_000
    done;
    !acc
  in
  let xs = List.init 64 Fun.id in
  let sequential = Parallel.map ~domains:1 task xs in
  Alcotest.(check (list int)) "2 domains" sequential (Parallel.map ~domains:2 task xs);
  Alcotest.(check (list int)) "5 domains" sequential (Parallel.map ~domains:5 task xs)

let test_exception_propagates () =
  Alcotest.check_raises "task failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Parallel.map ~domains:3
           (fun i -> if i = 7 then failwith "boom" else i)
           (List.init 20 Fun.id)))

(* The real consumer: a small chaos campaign over every configuration
   must render byte-identically whether it ran on one domain or
   several. *)
let test_chaos_byte_identical () =
  let campaign domains =
    Chaos.run ~n:9 ~clients:1 ~ops:4 ~horizon:400.0
      ~schedules:[ Chaos.crashes_schedule; Chaos.loss_schedule ]
      ~domains ()
  in
  let one = campaign 1 and many = campaign 3 in
  Alcotest.(check string) "table" (Chaos.table one) (Chaos.table many);
  Alcotest.(check string) "parity table" (Chaos.parity_table one)
    (Chaos.parity_table many)

let suite =
  [
    Alcotest.test_case "submission order preserved" `Quick test_order_preserved;
    Alcotest.test_case "map_array" `Quick test_map_array;
    Alcotest.test_case "empty and singleton inputs" `Quick
      test_empty_and_singleton;
    Alcotest.test_case "independent of domain count" `Quick
      test_determinism_across_domain_counts;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "chaos campaign byte-identical" `Slow
      test_chaos_byte_identical;
  ]
