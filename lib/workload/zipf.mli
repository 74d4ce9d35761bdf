(** Zipf-distributed key sampler (popularity skew for realistic
    workloads). *)

type t

val create : n:int -> theta:float -> t
(** Keys 0 .. n−1; [theta = 0] is uniform, [theta ≈ 1] is classic Zipf.
    [theta] must be in [\[0, 2\]] and [n ≥ 1]. *)

val sample : t -> Dsutil.Rng.t -> int

val pmf : t -> int -> float
(** Probability of the given key. *)

val cdf : t -> int -> float
(** [cdf t i] is the probability of a key [<= i]; [cdf t (n - 1) = 1]. *)
