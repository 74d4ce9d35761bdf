(* Chaos-campaign runner: crash/partition/loss schedules × the four paper
   tree configurations × oracle vs heartbeat failure detection, plus the
   amnesia crash-recovery campaign (WAL + rejoin catch-up) with its
   negative control, plus the overload / metastable-failure campaign
   (bounded queues, load shedding, retry budget, circuit breaker).

     dune exec bench/chaos.exe               # full campaign (32 cells)
     dune exec bench/chaos.exe -- --smoke    # CI budget (8 cells, seeded)
     dune exec bench/chaos.exe -- --overload # overload campaign only
     dune exec bench/chaos.exe -- --churn    # membership-churn gate only

   Exit status is non-zero when any cell records a safety violation, when
   the heartbeat detector's success rate falls more than 10 points behind
   the oracle's on the crash-only schedule, when the amnesia campaign
   (durable WAL + catch-up) shows any consistency violation, when the
   negative control (async WAL, no catch-up, total blackout) fails to
   produce one, or when the overload gate fails (naive retry storm must
   collapse, budget+breaker+shedding must recover ≥90%, zero consistency
   violations) — the campaign is a gate, not just a report. *)

let overload_path = "BENCH_overload.json"
let churn_path = "BENCH_churn.json"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let overload_cell_json (c : Eval.Overload.cell) =
  let r = c.Eval.Overload.report in
  Printf.sprintf
    "{\"scenario\":\"%s\",\"mode\":\"%s\",\"pre_goodput\":%.6f,\"post_goodput\":%.6f,\"recovery\":%.4f,\"ops_ok\":%d,\"sheds\":%d,\"overload_drops\":%d,\"retries_suppressed\":%d,\"breaker_trips\":%d,\"queue_peak\":%d,\"consistency_violations\":%d}"
    (Eval.Overload.kind_to_string c.Eval.Overload.kind)
    (Eval.Overload.mode_to_string c.Eval.Overload.mode)
    c.Eval.Overload.pre_goodput c.Eval.Overload.post_goodput
    c.Eval.Overload.recovery
    (r.Replication.Harness.reads_ok + r.Replication.Harness.writes_ok)
    r.Replication.Harness.replica_sheds r.Replication.Harness.overload_drops
    r.Replication.Harness.retries_suppressed
    r.Replication.Harness.breaker_trips r.Replication.Harness.queue_peak
    c.Eval.Overload.consistency_violations

(* The artifact's gate record: the verdict of the campaign's OCaml gate. *)
let gate_json ~pass failures =
  Printf.sprintf "{\"pass\":%b,\"failures\":[%s]}" pass
    (String.concat ","
       (List.map (fun f -> Printf.sprintf "\"%s\"" (json_escape f)) failures))

let write_artifact path json =
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc

let run_overload () =
  Printf.printf "\n== Overload / metastable-failure campaign ==\n\n";
  let campaign = Eval.Overload.run () in
  print_string (Eval.Overload.table campaign);
  let { Eval.Overload.pass; failures } = Eval.Overload.gate campaign in
  write_artifact overload_path
    (Printf.sprintf "{\"schema\":\"bench-overload/1\",\"cells\":[%s],\"gate\":%s}"
       (String.concat ","
          (List.map overload_cell_json campaign.Eval.Overload.cells))
       (gate_json ~pass failures));
  Printf.printf "\nwrote %s\n" overload_path;
  if not pass then begin
    List.iter (fun f -> Printf.eprintf "overload gate: %s\n" f) failures;
    prerr_endline "FAIL: overload gate";
    exit 1
  end;
  Printf.printf "overload gate OK\n"

let churn_cell_json (c : Eval.Churn.cell) =
  let r = c.Eval.Churn.c_report in
  Printf.sprintf
    "{\"config\":\"%s\",\"n\":%d,\"scenario\":\"%s\",\"reads_ok\":%d,\"writes_ok\":%d,\"promotions_done\":%d,\"decommissions_done\":%d,\"provision_runs\":%d,\"provision_chunks\":%d,\"provision_resumes\":%d,\"provision_donor_failovers\":%d,\"failed_rejoins\":%d,\"violations\":%d}"
    (Arbitrary.Config.name_to_string c.Eval.Churn.c_config)
    c.Eval.Churn.c_n
    (json_escape c.Eval.Churn.c_kind)
    r.Replication.Harness.reads_ok r.Replication.Harness.writes_ok
    r.Replication.Harness.promotions_done
    r.Replication.Harness.decommissions_done
    r.Replication.Harness.provision_runs
    r.Replication.Harness.provision_chunks
    r.Replication.Harness.provision_resumes
    r.Replication.Harness.provision_donor_failovers
    r.Replication.Harness.failed_rejoins
    r.Replication.Harness.safety_violations

(* Membership-churn smoke gate: the fenced campaign (four configs × four
   scenarios, plus the sharded run) and its unfenced blackout control,
   plus the cold-rejoin round comparison, judged by [Eval.Churn.gate]. *)
let run_churn () =
  Printf.printf "\n== Membership churn campaign ==\n\n";
  let fenced = Eval.Churn.run ~n:13 () in
  print_string (Eval.Churn.table fenced);
  Printf.printf "\n== Sharded churn (independent trees per shard) ==\n\n";
  let sharded = Eval.Churn.run_sharded ~n:13 () in
  print_string (Eval.Churn.table sharded);
  Printf.printf "\n== Negative control (blackout, unfenced, async WAL) ==\n\n";
  let negative = Eval.Churn.run_negative ~n:13 () in
  print_string (Eval.Churn.table negative);
  let rj = Eval.Churn.cold_rejoin_comparison () in
  Printf.printf
    "\ncold rejoin (%d keys, n=%d): catch-up %d rounds vs provisioning %d \
     rounds (%.1fx)\n"
    rj.Eval.Churn.rj_keys rj.Eval.Churn.rj_n rj.Eval.Churn.rj_catchup_rounds
    rj.Eval.Churn.rj_provision_rounds rj.Eval.Churn.rj_speedup;
  let { Eval.Churn.pass; failures } =
    Eval.Churn.gate { Eval.Churn.fenced; sharded; negative; cold_rejoin = rj }
  in
  write_artifact churn_path
    (Printf.sprintf
       "{\"schema\":\"bench-churn/1\",\"cells\":[%s],\"cold_rejoin\":{\"keys\":%d,\"catchup_rounds\":%d,\"provision_rounds\":%d,\"speedup\":%.4f},\"negative_violations\":%d,\"gate\":%s}"
       (String.concat ","
          (List.map churn_cell_json (fenced @ sharded @ negative)))
       rj.Eval.Churn.rj_keys rj.Eval.Churn.rj_catchup_rounds
       rj.Eval.Churn.rj_provision_rounds rj.Eval.Churn.rj_speedup
       (Eval.Churn.violations negative)
       (gate_json ~pass failures));
  Printf.printf "wrote %s\n" churn_path;
  if not pass then begin
    List.iter (fun f -> Printf.eprintf "churn gate: %s\n" f) failures;
    prerr_endline "FAIL: churn gate";
    exit 1
  end;
  Printf.printf "churn gate OK\n"

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  if Array.exists (( = ) "--churn") Sys.argv then begin
    run_churn ();
    exit 0
  end;
  if Array.exists (( = ) "--overload") Sys.argv then begin
    run_overload ();
    exit 0
  end;
  let campaign =
    if smoke then
      Eval.Chaos.run ~n:45 ~clients:3 ~ops:20 ~horizon:3000.0
        ~schedules:[ Eval.Chaos.crashes_schedule; Eval.Chaos.combined_schedule ]
        ()
    else Eval.Chaos.run ()
  in
  let label = if smoke then "smoke" else "full" in
  Printf.printf "== Chaos campaign (%s): %d cells ==\n\n" label
    (List.length campaign.Eval.Chaos.cells);
  print_string (Eval.Chaos.table campaign);
  Printf.printf "\n== Oracle vs heartbeat detection parity ==\n\n";
  print_string (Eval.Chaos.parity_table campaign);
  let gap = Eval.Chaos.crash_parity_gap campaign in
  Printf.printf
    "\ntotal safety violations: %d\nmax crash-schedule success-rate gap \
     (oracle vs heartbeat): %.4f\n"
    campaign.Eval.Chaos.safety_violations gap;
  Printf.printf "\n== Amnesia crash-recovery campaign ==\n\n";
  let amnesia = Eval.Chaos.run_amnesia () in
  print_string (Eval.Chaos.amnesia_table amnesia);
  let amnesia_violations = Eval.Chaos.amnesia_violations amnesia in
  Printf.printf "\namnesia (durable WAL + catch-up) violations: %d\n"
    amnesia_violations;
  Printf.printf "\n== Negative control (async WAL, no catch-up) ==\n\n";
  let negative = Eval.Chaos.run_amnesia_negative () in
  print_string (Eval.Chaos.amnesia_table negative);
  let negative_violations = Eval.Chaos.amnesia_violations negative in
  Printf.printf "\nnegative-control violations: %d (must be >= 1)\n"
    negative_violations;
  if campaign.Eval.Chaos.safety_violations > 0 then begin
    prerr_endline "FAIL: safety violated under chaos";
    exit 1
  end;
  if gap > 0.10 then begin
    prerr_endline
      "FAIL: heartbeat detection degrades availability by more than 10 \
       points on crash-only schedules";
    exit 1
  end;
  if amnesia_violations > 0 then begin
    prerr_endline
      "FAIL: consistency violated under amnesia crashes despite durable \
       WAL and quorum catch-up";
    exit 1
  end;
  if negative_violations = 0 then begin
    prerr_endline
      "FAIL: negative control detected no violations — the consistency \
       checker is not catching lost writes";
    exit 1
  end;
  run_overload ();
  print_endline "chaos campaign OK"
