module Stats = Dsutil.Stats

type config = {
  initial : float;
  min_timeout : float;
  max_timeout : float;
  quantile : float;
  multiplier : float;
  min_samples : int;
}

let default_config =
  {
    initial = 25.0;
    min_timeout = 5.0;
    max_timeout = 200.0;
    quantile = 0.95;
    multiplier = 3.0;
    min_samples = 8;
  }

(* The samples are kept sorted as they arrive (binary insertion into a
   flat floatarray): [timeout] runs at every phase and reads its
   nearest-rank quantile in place, where a [Stats] accumulator would
   re-sort the whole history after each new sample. *)
type t = { config : config; mutable sorted : floatarray; mutable n : int }

let create ?(config = default_config) () =
  if config.quantile < 0.0 || config.quantile > 1.0 then
    invalid_arg "Rto.create: quantile out of [0,1]";
  { config; sorted = Float.Array.create 0; n = 0 }

let observe t rtt =
  if rtt > 0.0 then begin
    if t.n = Float.Array.length t.sorted then begin
      let grown = Float.Array.create (max 8 (2 * t.n)) in
      Float.Array.blit t.sorted 0 grown 0 t.n;
      t.sorted <- grown
    end;
    (* the first slot holding a larger sample *)
    let lo = ref 0 and hi = ref t.n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Float.Array.get t.sorted mid <= rtt then lo := mid + 1 else hi := mid
    done;
    Float.Array.blit t.sorted !lo t.sorted (!lo + 1) (t.n - !lo);
    Float.Array.set t.sorted !lo rtt;
    t.n <- t.n + 1
  end

let timeout t =
  let c = t.config in
  if t.n < c.min_samples || t.n = 0 then c.initial
  else begin
    let rank = Stats.nearest_rank ~count:t.n c.quantile in
    let rtt = Float.Array.get t.sorted rank in
    Float.min c.max_timeout (Float.max c.min_timeout (c.multiplier *. rtt))
  end

let samples t = t.n
