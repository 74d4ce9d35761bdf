module Bitset = Dsutil.Bitset

let test_add_mem_remove () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "initially empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "mem %d" i) true (Bitset.mem s i))
    [ 0; 63; 64; 99 ];
  Alcotest.(check bool) "not mem 50" false (Bitset.mem s 50);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset: index 10 out of [0,10)") (fun () ->
      Bitset.add s 10);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: index -1 out of [0,10)") (fun () ->
      ignore (Bitset.mem s (-1)))

let test_set_ops () =
  let a = Bitset.of_list 20 [ 1; 2; 3 ] in
  let b = Bitset.of_list 20 [ 3; 4; 5 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5 ]
    (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  Alcotest.(check bool) "intersects" true (Bitset.intersects a b);
  Alcotest.(check bool) "no intersection" false
    (Bitset.intersects a (Bitset.of_list 20 [ 7; 8 ]))

let test_subset () =
  let a = Bitset.of_list 10 [ 1; 2 ] in
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  Alcotest.(check bool) "a ⊆ b" true (Bitset.subset a b);
  Alcotest.(check bool) "b ⊄ a" false (Bitset.subset b a);
  Alcotest.(check bool) "a ⊆ a" true (Bitset.subset a a);
  Alcotest.(check bool) "empty ⊆ a" true (Bitset.subset (Bitset.create 10) a)

let test_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.intersects a b))

let test_iter_fold_elements () =
  let s = Bitset.of_list 70 [ 5; 68; 33 ] in
  Alcotest.(check (list int)) "elements sorted" [ 5; 33; 68 ] (Bitset.elements s);
  Alcotest.(check int) "fold sum" 106 (Bitset.fold ( + ) s 0);
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "iter ascending" [ 5; 33; 68 ] (List.rev !seen)

let test_copy_independent () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  Alcotest.(check bool) "copy isolated" false (Bitset.mem a 2);
  Alcotest.(check bool) "equal to self" true (Bitset.equal a a);
  Alcotest.(check bool) "not equal after change" false (Bitset.equal a b)

(* [blit] keeps the source's members below the destination's capacity,
   across word boundaries (63 bits per word), and nothing above it. *)
let test_blit_prefix () =
  let src = Bitset.of_list 130 [ 0; 5; 62; 63; 64; 125; 126; 129 ] in
  List.iter
    (fun cap ->
      let dst = Bitset.of_list cap (List.init cap Fun.id) in
      Bitset.blit ~src ~dst;
      Alcotest.(check (list int))
        (Printf.sprintf "capacity %d" cap)
        (List.filter (fun i -> i < cap) (Bitset.elements src))
        (Bitset.elements dst))
    [ 0; 1; 62; 63; 64; 126; 127; 130 ];
  Alcotest.check_raises "wider destination"
    (Invalid_argument "Bitset.blit: destination wider than source") (fun () ->
      Bitset.blit ~src ~dst:(Bitset.create 131))

let test_clear () =
  let s = Bitset.of_list 10 [ 1; 2; 3 ] in
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

(* qcheck properties *)
let site_list = QCheck.(small_list (int_bound 63))

let prop_union_cardinal =
  QCheck.Test.make ~name:"cardinal(a ∪ b) = |a| + |b| - |a ∩ b|" ~count:200
    (QCheck.pair site_list site_list)
    (fun (la, lb) ->
      let a = Bitset.of_list 64 la and b = Bitset.of_list 64 lb in
      Bitset.cardinal (Bitset.union a b)
      = Bitset.cardinal a + Bitset.cardinal b - Bitset.cardinal (Bitset.inter a b))

let prop_diff_disjoint =
  QCheck.Test.make ~name:"(a \\ b) ∩ b = ∅" ~count:200
    (QCheck.pair site_list site_list)
    (fun (la, lb) ->
      let a = Bitset.of_list 64 la and b = Bitset.of_list 64 lb in
      Bitset.is_empty (Bitset.inter (Bitset.diff a b) b))

let prop_elements_roundtrip =
  QCheck.Test.make ~name:"of_list/elements roundtrip" ~count:200 site_list
    (fun l ->
      let s = Bitset.of_list 64 l in
      Bitset.elements s = List.sort_uniq compare l)

let suite =
  [
    Alcotest.test_case "add/mem/remove" `Quick test_add_mem_remove;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "capacity mismatch" `Quick test_capacity_mismatch;
    Alcotest.test_case "iter/fold/elements" `Quick test_iter_fold_elements;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "blit copies a prefix" `Quick test_blit_prefix;
    QCheck_alcotest.to_alcotest prop_union_cardinal;
    QCheck_alcotest.to_alcotest prop_diff_disjoint;
    QCheck_alcotest.to_alcotest prop_elements_roundtrip;
  ]
