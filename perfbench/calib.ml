(* A fixed calibration kernel: the machine-speed reference for the wall
   clock metrics.

   The benchmark runs on shared machines whose speed for the same work
   drifts by up to 1.7x over minutes, as other tenants come and go.  The
   kernel is the benchmark's own code, so no change to the library moves
   it; it mixes the simulator's kinds of work (a 4-ary float-keyed heap,
   random access to an 8 MiB array, hash-table updates and short-lived
   allocation), so it slows down together with the simulation.  Timing it
   next to each simulation gives the machine's speed at that moment.
   Changing this file changes every wall-clock figure. *)

let heap_keys = Array.make 1024 0.0
let heap_vals = Array.make 1024 0
let len = ref 0

let push k v =
  let i = ref !len in
  incr len;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    if heap_keys.(p) > k then begin
      heap_keys.(!i) <- heap_keys.(p);
      heap_vals.(!i) <- heap_vals.(p);
      i := p
    end
    else moving := false
  done;
  heap_keys.(!i) <- k;
  heap_vals.(!i) <- v

let pop () =
  let top = heap_vals.(0) in
  decr len;
  let k = heap_keys.(!len) and v = heap_vals.(!len) in
  let i = ref 0 and moving = ref true in
  while !moving do
    let c = (4 * !i) + 1 in
    if c >= !len then moving := false
    else begin
      let m = ref c in
      for j = c + 1 to min (c + 3) (!len - 1) do
        if heap_keys.(j) < heap_keys.(!m) then m := j
      done;
      if heap_keys.(!m) < k then begin
        heap_keys.(!i) <- heap_keys.(!m);
        heap_vals.(!i) <- heap_vals.(!m);
        i := !m
      end
      else moving := false
    end
  done;
  heap_keys.(!i) <- k;
  heap_vals.(!i) <- v;
  top

(* Wall time of one kernel run, in ns. *)
let kernel_ns () =
  let t0 = Acct.now_ns () in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    !x
  in
  let big = Array.make (1 lsl 20) 0 in
  let mask = Array.length big - 1 in
  let h = Hashtbl.create 4096 in
  let recent = ref [] in
  len := 0;
  for _ = 1 to 256 do
    push (float_of_int (next ())) 0
  done;
  let now = ref 0.0 in
  for i = 1 to 100_000 do
    let r = next () in
    now := !now +. 0.001;
    push (!now +. float_of_int (r land 1023)) i;
    ignore (pop ());
    let j = r land mask in
    big.(j) <- big.(j) + big.((j * 7) land mask);
    Hashtbl.replace h (r land 4095) (i, r);
    recent := (i, r) :: (if i land 63 = 0 then [] else !recent)
  done;
  ignore (Sys.opaque_identity (big, h, !recent));
  Acct.now_ns () - t0

(* The kernel's time on a quiet 2-core x86-64 virtual machine at 2.0 GHz: wall
   figures are scaled to a machine that runs the kernel this fast. *)
let reference_ns = 40_000_000.0

(* Machine slowness right now: > 1 when the kernel runs slower than the
   reference.  Two runs, so one unlucky burst does not decide. *)
let slowness () =
  let a = kernel_ns () in
  let b = kernel_ns () in
  float_of_int (a + b) /. 2.0 /. reference_ns
