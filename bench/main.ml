(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index), compares the
   analytic model against full protocol executions on the simulator,
   produces the instrumented baseline (BENCH_baseline.json) and the
   shard-scaling campaign (BENCH_shard.json), and finishes with bechamel
   micro-benchmarks of the hot paths.

   Run with: dune exec bench/main.exe              # everything
             dune exec bench/main.exe -- --smoke   # baseline only (CI gate)
             dune exec bench/main.exe -- --shard   # shard scaling only (CI gate)

   Both artifact sections are gates, not just reports: each exits
   non-zero when its deterministic gate ([Eval.Baseline.gate],
   [Eval.Sharding.gate]) fails.  Throughput and allocation claims live
   elsewhere, where they can be checked on any machine: words per op in
   test/test_alloc.ml, batching's messages per op in
   test/test_batching.ml, and calibrated wall clock in perfbench.

   Stdout is deterministic: two runs print the same bytes.  The wall-clock
   lines (the shard campaign's elapsed time and the micro-benchmark
   timings) go to stderr. *)

open Bechamel

let hr title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* --- experiment regeneration -------------------------------------------- *)

let analytic_sections () =
  hr "T1 | Table 1 and the worked example of §3.4";
  print_string (Eval.Figures.table1 ());
  hr "F2 | Figure 2: communication costs";
  print_string (Eval.Figures.fig2 ());
  hr "F3 | Figure 3: (expected) system loads of read operations";
  print_string (Eval.Figures.fig3 ());
  hr "F4 | Figure 4: (expected) system loads of write operations";
  print_string (Eval.Figures.fig4 ());
  hr "P1 | Limit availabilities of §3.3";
  print_string (Eval.Figures.limits ());
  hr "§1 | Related-work comparison";
  print_string (Eval.Figures.related_work ());
  hr "§4 | Qualitative shape checks";
  print_string (Eval.Figures.shape_checks ())

let simulation_sections () =
  hr "A1 | Ablation: measured (simulated) vs analytic";
  print_string (Eval.Simulate.cost_load_table ~n:65 ~ops:400 ());
  print_newline ();
  print_string (Eval.Simulate.cost_sweep ());
  print_newline ();
  print_string (Eval.Simulate.latency_table ());
  print_newline ();
  print_string (Eval.Simulate.availability_table ~n:65 ~trials:3000 ());
  print_newline ();
  print_string (Eval.Simulate.failure_availability_table ~n:33 ~patterns:40 ())

let txn_section () =
  hr "§2.2 | Transactions: 2PL + cross-key 2PC (increment workload)";
  let proto =
    Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:24)
  in
  let s = Replication.Txn_harness.default_scenario ~proto in
  Format.printf "failure-free:@.  %a@." Replication.Txn_harness.pp_report
    (Replication.Txn_harness.run s);
  let rng = Dsutil.Rng.create 5 in
  let failures =
    Dsim.Failure.random_crash_recovery ~rng ~n:24 ~horizon:400.0 ~mtbf:150.0
      ~mttr:40.0
  in
  Format.printf "churn + 2%% loss:@.  %a@." Replication.Txn_harness.pp_report
    (Replication.Txn_harness.run
       { s with Replication.Txn_harness.failures; loss_rate = 0.02; n_clients = 4 })

let generalized_section () =
  hr "Extension: per-level (r,w) thresholds (Generalized protocol)";
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:64 in
  let p = 0.7 in
  let rows =
    List.map
      (fun (name, g) ->
        [
          name;
          string_of_int (Arbitrary.Generalized.read_cost g);
          Printf.sprintf "%.2f" (Arbitrary.Generalized.write_cost_avg g);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.read_load g);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.write_load g);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.read_availability g ~p);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.write_availability g ~p);
        ])
      [
        ("classic (paper)", Arbitrary.Generalized.classic tree);
        ("level-majority", Arbitrary.Generalized.level_majority tree);
      ]
  in
  print_string
    (Eval.Tablefmt.render
       ~header:
         [ "thresholds"; "rd cost"; "wr cost"; "rd load"; "wr load";
           "rd avail"; "wr avail" ]
       ~rows);
  Format.printf
    "(algorithm-1 tree, n=64, p=%.1f: majority thresholds cut the write cost@.    \ and lift write availability, paying with read cost — a knob the@.    \ paper's 1-of/all-of rule does not expose)@." p

let placement_section () =
  hr "Ablation: replica placement under heterogeneous availability";
  let tree = Arbitrary.Tree.figure1 () in
  let p = [| 0.95; 0.95; 0.95; 0.6; 0.6; 0.6; 0.6; 0.6 |] in
  let show name a =
    Format.printf "  %-22s read avail %.4f   write avail %.4f@." name
      (Arbitrary.Placement.availability_of tree ~p a
         Arbitrary.Placement.Read_availability)
      (Arbitrary.Placement.availability_of tree ~p a
         Arbitrary.Placement.Write_availability)
  in
  Format.printf
    "figure-1 tree, three 0.95-sites among five 0.6-sites; where they sit:@.";
  show "identity" (Arbitrary.Placement.identity tree);
  show "spread (read-greedy)"
    (Arbitrary.Placement.greedy tree ~p Arbitrary.Placement.Read_availability);
  show "concentrate (wr-greedy)"
    (Arbitrary.Placement.greedy tree ~p Arbitrary.Placement.Write_availability);
  show "exhaustive (reads)"
    (Arbitrary.Placement.exhaustive tree ~p Arbitrary.Placement.Read_availability);
  Format.printf
    "  -> reads want reliable sites SPREAD one per level; writes want them@.    \   CONCENTRATED on one level. The paper's uniform-p model hides this.@."

let planner_section () =
  hr "§3.3 | Planner spectrum (n=100, p=0.8)";
  let rows =
    List.map
      (fun read_fraction ->
        let tree = Arbitrary.Planner.plan ~n:100 ~p:0.8 ~read_fraction () in
        let s = Arbitrary.Analysis.summarize tree ~p:0.8 in
        [
          Printf.sprintf "%.2f" read_fraction;
          string_of_int (Arbitrary.Tree.num_physical_levels tree);
          string_of_int s.Arbitrary.Analysis.rd_cost;
          Printf.sprintf "%.2f" s.Arbitrary.Analysis.wr_cost_avg;
          Printf.sprintf "%.4f" s.Arbitrary.Analysis.expected_rd_load;
          Printf.sprintf "%.4f" s.Arbitrary.Analysis.expected_wr_load;
        ])
      [ 0.01; 0.25; 0.5; 0.75; 0.99 ]
  in
  print_string
    (Eval.Tablefmt.render
       ~header:
         [ "read frac"; "|K_phy|"; "rd cost"; "wr cost"; "E[L_RD]"; "E[L_WR]" ]
       ~rows);
  (* The extension-aware planner may pick level-majority thresholds. *)
  Format.printf "@.with generalized thresholds (write-heavy mix):@.";
  let g = Arbitrary.Planner.plan_generalized ~n:100 ~p:0.8 ~read_fraction:0.1 () in
  Format.printf "  tree %s  thresholds r=%s w=%s@."
    (Arbitrary.Tree.to_spec (Arbitrary.Generalized.tree g))
    (String.concat "," (List.map string_of_int (Arbitrary.Generalized.read_thresholds g)))
    (String.concat "," (List.map string_of_int (Arbitrary.Generalized.write_thresholds g)))

(* --- artifact gates ------------------------------------------------------ *)

let write_artifact path json =
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length json + 1)

let enforce name failures =
  List.iter (Printf.printf "  GATE: %s\n") failures;
  if failures <> [] then begin
    Printf.printf "%s GATE FAILED\n" name;
    exit 1
  end

let baseline_section () =
  hr "B0 | Baseline: instrumented workloads vs Equation 3.2";
  let seed = Eval.Baseline.default_seed and n = Eval.Baseline.default_n in
  let rows = Eval.Baseline.measure_all ~seed ~n () in
  print_string (Eval.Baseline.table rows);
  Printf.printf "\nmax per-site load deviation vs closed form: %.1f%% (gate: 10%%)\n"
    (100.0 *. Eval.Baseline.max_load_error rows);
  Printf.printf "span accounting: %d leaked (gate: 0)\n"
    (Eval.Baseline.span_leaks rows);
  write_artifact "BENCH_baseline.json" (Eval.Baseline.to_json ~seed ~n rows);
  enforce "BASELINE" (Eval.Baseline.gate rows).Eval.Baseline.failures

let shard_section () =
  hr "S1 | Shard scaling: multi-tree control plane over one engine";
  let t0 = Unix.gettimeofday () in
  let campaign = Eval.Sharding.run () in
  print_string (Eval.Sharding.table campaign);
  (* wall clock differs run to run: stderr, so stdout stays diffable *)
  Printf.eprintf "campaign wall-clock %.2fs\n" (Unix.gettimeofday () -. t0);
  write_artifact "BENCH_shard.json" (Eval.Sharding.json campaign);
  enforce "SHARD" (Eval.Sharding.gate campaign).Eval.Sharding.failures

(* --- bechamel micro-benchmarks ------------------------------------------ *)

let bench_tests () =
  let rng = Dsutil.Rng.create 7 in
  let tree = Arbitrary.Config.algorithm1 ~n:100 in
  let proto = Arbitrary.Quorums.protocol tree in
  let alive = Quorum.Protocol.all_alive proto in
  let tq = Quorum.Tree_quorum.create ~height:6 in
  let tq_alive = Quorum.Protocol.all_alive (Quorum.Tree_quorum.protocol tq) in
  let hqc = Quorum.Hqc.create ~depth:4 in
  let hqc_alive = Quorum.Protocol.all_alive (Quorum.Hqc.protocol hqc) in
  let fig1 = Arbitrary.Tree.figure1 () in
  let fig1_reads =
    Quorum.Quorum_set.create ~universe:8
      (List.of_seq (Arbitrary.Quorums.enumerate_read_quorums fig1))
  in
  [
    Test.make ~name:"T1: figure-1 analytic summary"
      (Staged.stage (fun () -> Arbitrary.Analysis.summarize fig1 ~p:0.7));
    Test.make ~name:"F2: config metrics at n=513"
      (Staged.stage (fun () ->
           List.map
             (fun c -> Eval.Config_metrics.compute c ~n:513 ~p:0.7)
             Arbitrary.Config.all_names));
    Test.make ~name:"F3/F4: algorithm-1 tree build (n=10000)"
      (Staged.stage (fun () -> Arbitrary.Config.algorithm1 ~n:10000));
    Test.make ~name:"arbitrary read-quorum assembly (n=100)"
      (Staged.stage (fun () -> Arbitrary.Quorums.read_quorum tree ~alive ~rng));
    Test.make ~name:"arbitrary write-quorum assembly (n=100)"
      (Staged.stage (fun () -> Arbitrary.Quorums.write_quorum tree ~alive ~rng));
    Test.make ~name:"tree-quorum assembly (n=127)"
      (Staged.stage (fun () ->
           Quorum.Tree_quorum.read_quorum tq ~alive:tq_alive ~rng));
    Test.make ~name:"HQC assembly (n=81)"
      (Staged.stage (fun () -> Quorum.Hqc.read_quorum hqc ~alive:hqc_alive ~rng));
    Test.make ~name:"P3: LP optimal load (figure-1 reads)"
      (Staged.stage (fun () -> Analysis.Load_lp.optimal_load fig1_reads));
    Test.make ~name:"A1: end-to-end simulation (1 client, 20 ops)"
      (Staged.stage (fun () ->
           let s = Replication.Harness.default_scenario ~proto in
           Replication.Harness.run
             { s with Replication.Harness.n_clients = 1; ops_per_client = 20 }));
    Test.make ~name:"txn harness (1 client, 10 increment txns)"
      (Staged.stage (fun () ->
           let s = Replication.Txn_harness.default_scenario ~proto in
           Replication.Txn_harness.run
             { s with Replication.Txn_harness.n_clients = 1; txns_per_client = 10 }));
  ]

let run_benchmarks () =
  hr "Micro-benchmarks (bechamel, monotonic clock; timings on stderr)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"repro" ~fmt:"%s %s" (bench_tests ()))
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if ns < 1_000.0 then Printf.eprintf "%-55s %10.1f ns/run\n" name ns
      else if ns < 1_000_000.0 then
        Printf.eprintf "%-55s %10.2f us/run\n" name (ns /. 1_000.0)
      else Printf.eprintf "%-55s %10.2f ms/run\n" name (ns /. 1_000_000.0))
    (List.sort compare !rows)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let shard_only = Array.exists (( = ) "--shard") Sys.argv in
  if smoke then baseline_section ()
  else if shard_only then shard_section ()
  else begin
    analytic_sections ();
    planner_section ();
    simulation_sections ();
    txn_section ();
    placement_section ();
    generalized_section ();
    baseline_section ();
    shard_section ();
    run_benchmarks ();
    print_newline ()
  end
