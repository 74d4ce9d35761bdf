module Rng = Dsutil.Rng

type t = { n : int; cdf : float array }

let create ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: need at least one key";
  if theta < 0.0 || theta > 2.0 then invalid_arg "Zipf.create: theta out of [0,2]";
  (* Weights, their sum and the running sum are computed in place with
     plain loops, so no float is boxed.  The additions run in key order:
     seeded workloads depend on every entry bit for bit.  pow(x, 0) = 1
     exactly, so θ = 0 skips the [**]. *)
  let cdf = Array.make n 1.0 in
  if theta <> 0.0 then
    for i = 0 to n - 1 do
      cdf.(i) <- 1.0 /. (float_of_int (i + 1) ** theta)
    done;
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. cdf.(i)
  done;
  let total = !total in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (cdf.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let sample t rng =
  let u = Rng.float rng 1.0 in
  (* Binary search for the first cdf entry >= u. *)
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then go lo mid else go (mid + 1) hi
    end
  in
  go 0 (t.n - 1)

let pmf t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.pmf: key out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

let cdf t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.cdf: key out of range";
  t.cdf.(i)
