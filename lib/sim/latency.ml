module Rng = Dsutil.Rng

type t = Constant of float | Uniform of float * float | Exponential of float

(* The uniform and exponential draws are written out inline over
   [Rng.bits53]: a float returned by [Rng.float] (or by [Rng.exponential]
   and [Rng.uniform_in] above it) is boxed at every call level on the
   per-message hot path, so only the sample itself is.  The arithmetic is
   [Rng.float]'s, so the draws are bit-identical ([x *. 1.0 = x]). *)
let unit_draw rng =
  float_of_int (Rng.bits53 rng) /. 9007199254740992.0
[@@inline]

let sample t rng =
  match t with
  | Constant d -> d
  | Uniform (lo, hi) -> lo +. (unit_draw rng *. (hi -. lo))
  | Exponential mean ->
    let u = unit_draw rng in
    let u = if u <= 0.0 then 1e-300 else u in
    (0.1 *. mean) +. (-.mean *. log u)

let mean = function
  | Constant d -> d
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential mean -> 1.1 *. mean

let pp ppf = function
  | Constant d -> Format.fprintf ppf "constant(%.2f)" d
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform(%.2f, %.2f)" lo hi
  | Exponential mean -> Format.fprintf ppf "exponential(%.2f)" mean
