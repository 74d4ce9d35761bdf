module Span = Obs.Span
module Consistency = Eval.Consistency

(* Spans built by hand, so the checker can be fed synthetic traces with
   exactly the overlap structure under test. *)
let span ?result_ts ?(outcome = Span.Ok) ~id ~op ~key ~started ~ended () =
  let sp = Span.create ~id ~op ~site:100 ~key ~started () in
  Option.iter
    (fun (version, sid) -> Span.set_result_ts sp ~version ~sid)
    result_ts;
  Span.close sp ~ended ~outcome;
  sp

let write ~id ~key ~started ~ended ~version =
  span ~id ~op:"write" ~key ~started ~ended ~result_ts:(version, 0) ()

let read ~id ~key ~started ~ended ~version =
  span ~id ~op:"read" ~key ~started ~ended ~result_ts:(version, 0) ()

let test_fresh_read_ok () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:10.0 ~version:1;
        read ~id:2 ~key:0 ~started:20.0 ~ended:25.0 ~version:1;
      ]
  in
  Alcotest.(check bool) "ok" true (Consistency.ok r);
  Alcotest.(check int) "reads" 1 r.Consistency.reads_checked;
  Alcotest.(check int) "writes" 1 r.Consistency.writes_indexed

let test_stale_read_flagged () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:10.0 ~version:1;
        read ~id:2 ~key:0 ~started:20.0 ~ended:25.0 ~version:0;
      ]
  in
  Alcotest.(check int) "one violation" 1 (List.length r.Consistency.violations);
  let v = List.hd r.Consistency.violations in
  Alcotest.(check int) "names the read" 2 v.Consistency.read_id;
  Alcotest.(check int) "names the write" 1 v.Consistency.write_id;
  Alcotest.(check int) "required version" 1
    v.Consistency.required.Replication.Timestamp.version

(* A write still in flight when the read starts does not constrain it:
   regularity allows either the old or the new value. *)
let test_concurrent_write_unconstraining () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:5.0 ~version:1;
        write ~id:3 ~key:0 ~started:15.0 ~ended:30.0 ~version:2;
        read ~id:2 ~key:0 ~started:20.0 ~ended:25.0 ~version:1;
      ]
  in
  Alcotest.(check bool) "old value legal under overlap" true
    (Consistency.ok r)

(* Ties are ambiguous: a write that ends at the very instant the read
   starts happened "simultaneously" in virtual time, so it must not
   constrain the read (strictly-before only). *)
let test_tie_not_constraining () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:20.0 ~version:1;
        read ~id:2 ~key:0 ~started:20.0 ~ended:25.0 ~version:0;
      ]
  in
  Alcotest.(check bool) "simultaneous completion does not bind" true
    (Consistency.ok r)

let test_unstamped_skipped () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:10.0 ~version:1;
        span ~id:2 ~op:"read" ~key:0 ~started:20.0 ~ended:25.0 ();
      ]
  in
  Alcotest.(check int) "unstamped counted" 1 r.Consistency.unstamped;
  Alcotest.(check int) "not checked" 0 r.Consistency.reads_checked;
  Alcotest.(check bool) "no violation invented" true (Consistency.ok r)

let test_failed_write_not_indexed () =
  let r =
    Consistency.check
      [
        span
          ~outcome:(Span.Failed "timeout")
          ~result_ts:(1, 0) ~id:1 ~op:"write" ~key:0 ~started:0.0 ~ended:10.0
          ();
        read ~id:2 ~key:0 ~started:20.0 ~ended:25.0 ~version:0;
      ]
  in
  Alcotest.(check int) "failed write ignored" 0 r.Consistency.writes_indexed;
  Alcotest.(check bool) "nothing to violate" true (Consistency.ok r)

let test_newest_prior_write_required () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:5.0 ~version:1;
        write ~id:3 ~key:0 ~started:6.0 ~ended:15.0 ~version:2;
        read ~id:2 ~key:0 ~started:20.0 ~ended:25.0 ~version:1;
      ]
  in
  Alcotest.(check int) "one violation" 1 (List.length r.Consistency.violations);
  let v = List.hd r.Consistency.violations in
  Alcotest.(check int) "newest prior write named" 3 v.Consistency.write_id;
  Alcotest.(check int) "its version required" 2
    v.Consistency.required.Replication.Timestamp.version

let test_keys_independent () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:10.0 ~version:5;
        read ~id:2 ~key:1 ~started:20.0 ~ended:25.0 ~version:0;
      ]
  in
  Alcotest.(check bool) "other key's writes irrelevant" true
    (Consistency.ok r)

(* Reads that return a version newer than required (e.g. observing an
   in-flight write) are legal too. *)
let test_newer_than_required_ok () =
  let r =
    Consistency.check
      [
        write ~id:1 ~key:0 ~started:0.0 ~ended:10.0 ~version:1;
        write ~id:3 ~key:0 ~started:15.0 ~ended:30.0 ~version:2;
        read ~id:2 ~key:0 ~started:20.0 ~ended:25.0 ~version:2;
      ]
  in
  Alcotest.(check bool) "fresher than required is fine" true
    (Consistency.ok r)

let suite =
  [
    Alcotest.test_case "fresh read passes" `Quick test_fresh_read_ok;
    Alcotest.test_case "stale read flagged with op ids" `Quick
      test_stale_read_flagged;
    Alcotest.test_case "concurrent write does not constrain" `Quick
      test_concurrent_write_unconstraining;
    Alcotest.test_case "simultaneous completion does not constrain" `Quick
      test_tie_not_constraining;
    Alcotest.test_case "unstamped spans skipped" `Quick test_unstamped_skipped;
    Alcotest.test_case "failed writes not indexed" `Quick
      test_failed_write_not_indexed;
    Alcotest.test_case "newest prior write is the bound" `Quick
      test_newest_prior_write_required;
    Alcotest.test_case "keys are independent" `Quick test_keys_independent;
    Alcotest.test_case "fresher than required passes" `Quick
      test_newer_than_required_ok;
  ]
