module Latency = Dsim.Latency
module Presets = Workload.Presets
module Rng = Dsutil.Rng

let test_constant () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check (float 1e-9)) "constant" 3.0
      (Latency.sample (Latency.Constant 3.0) rng)
  done;
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Latency.mean (Latency.Constant 3.0))

let test_uniform_bounds () =
  let rng = Rng.create 2 in
  let model = Latency.Uniform (2.0, 5.0) in
  for _ = 1 to 10_000 do
    let v = Latency.sample model rng in
    Alcotest.(check bool) "in bounds" true (v >= 2.0 && v < 5.0)
  done;
  Alcotest.(check (float 1e-9)) "mean" 3.5 (Latency.mean model)

let test_exponential_positive_mean () =
  let rng = Rng.create 3 in
  let model = Latency.Exponential 2.0 in
  let total = ref 0.0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let v = Latency.sample model rng in
    Alcotest.(check bool) "strictly positive" true (v > 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool) "empirical mean near model mean" true
    (abs_float (mean -. Latency.mean model) < 0.1)

let test_latency_pp () =
  List.iter
    (fun (m, expected) ->
      Alcotest.(check string) "pp" expected (Format.asprintf "%a" Latency.pp m))
    [
      (Latency.Constant 1.0, "constant(1.00)");
      (Latency.Uniform (1.0, 2.0), "uniform(1.00, 2.00)");
      (Latency.Exponential 3.0, "exponential(3.00)");
    ]

let test_presets_lookup () =
  Alcotest.(check int) "four presets" 4 (List.length Presets.all);
  (match Presets.by_name "READ-MOSTLY" with
  | Some p ->
    Alcotest.(check (float 1e-9)) "read fraction" 0.95 p.Presets.read_fraction
  | None -> Alcotest.fail "case-insensitive lookup failed");
  Alcotest.(check bool) "unknown -> None" true (Presets.by_name "nope" = None)

let test_presets_sane () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Presets.name ^ " fraction in range")
        true
        (p.Presets.read_fraction >= 0.0 && p.Presets.read_fraction <= 1.0);
      Alcotest.(check bool)
        (p.Presets.name ^ " theta in range")
        true
        (p.Presets.zipf_theta >= 0.0 && p.Presets.zipf_theta <= 2.0);
      (* Every preset must be accepted by the generator. *)
      let gen =
        Workload.Generator.create ~rng:(Rng.create 7)
          ~read_fraction:p.Presets.read_fraction ~key_space:4
          ~zipf_theta:p.Presets.zipf_theta ()
      in
      ignore (Workload.Generator.next gen))
    Presets.all

let test_read_only_preset_generates_no_writes () =
  let p = Presets.read_only in
  let gen =
    Workload.Generator.create ~rng:(Rng.create 9)
      ~read_fraction:p.Presets.read_fraction ~key_space:4
      ~zipf_theta:p.Presets.zipf_theta ()
  in
  for _ = 1 to 1000 do
    match Workload.Generator.next gen with
    | Workload.Generator.Read _ -> ()
    | Workload.Generator.Write _ -> Alcotest.fail "read-only preset wrote"
  done

(* [sample] draws [Rng.bits53] and converts it in its own body; the
   draws must stay bit-identical to the [Rng.float] formulation they
   replaced, or every seeded simulation would move. *)
let test_sample_matches_rng_float () =
  let reference model rng =
    match model with
    | Latency.Constant d -> d
    | Latency.Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
    | Latency.Exponential mean ->
      let u = Rng.float rng 1.0 in
      let u = if u <= 0.0 then 1e-300 else u in
      (0.1 *. mean) +. (-.mean *. log u)
  in
  List.iter
    (fun model ->
      let a = Rng.create 9 and b = Rng.create 9 in
      for _ = 1 to 10_000 do
        let x = Latency.sample model a and y = reference model b in
        if Int64.bits_of_float x <> Int64.bits_of_float y then
          Alcotest.failf "%a: %h <> %h" Latency.pp model x y
      done)
    [ Latency.Uniform (0.5, 7.25); Latency.Exponential 1.0;
      Latency.Exponential 3.7 ]

let suite =
  [
    Alcotest.test_case "sample is bit-identical to Rng.float" `Quick
      test_sample_matches_rng_float;
    Alcotest.test_case "constant latency" `Quick test_constant;
    Alcotest.test_case "uniform latency bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "exponential latency" `Quick test_exponential_positive_mean;
    Alcotest.test_case "latency pretty-printing" `Quick test_latency_pp;
    Alcotest.test_case "preset lookup" `Quick test_presets_lookup;
    Alcotest.test_case "presets are sane" `Quick test_presets_sane;
    Alcotest.test_case "read-only preset" `Quick
      test_read_only_preset_generates_no_writes;
  ]
