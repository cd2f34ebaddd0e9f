module Counters = struct
  type t = Dip_obs.Metrics.t

  let get = Dip_obs.Metrics.counter_value
  let to_list = Dip_obs.Metrics.written_counters
end

module Series = struct
  (* Bounded memory under unbounded sample streams: count, sum,
     sum-of-squared-deviations (Welford), min and max are maintained
     exactly over every sample; order statistics come from a
     fixed-size uniform reservoir (Vitter's Algorithm R) refreshed
     with a deterministic SplitMix64 stream so runs reproduce. *)
  type t = {
    reservoir : float array;
    mutable n : int; (* total samples observed *)
    mutable sum : float;
    mutable mean_acc : float; (* Welford running mean *)
    mutable m2 : float; (* Welford sum of squared deviations *)
    mutable mn : float;
    mutable mx : float;
    prng : Dip_stdext.Prng.t;
    mutable sorted : float array option; (* sorted reservoir prefix *)
  }

  let default_capacity = 4096

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Stats.Series.create: capacity must be >= 1";
    {
      reservoir = Array.make capacity 0.0;
      n = 0;
      sum = 0.0;
      mean_acc = 0.0;
      m2 = 0.0;
      mn = 0.0;
      mx = 0.0;
      prng = Dip_stdext.Prng.create 0x5e12e5_0b5L;
      sorted = None;
    }

  let capacity t = Array.length t.reservoir
  let held t = Stdlib.min t.n (capacity t)

  let add t x =
    let cap = capacity t in
    if t.n < cap then begin
      t.reservoir.(t.n) <- x;
      t.sorted <- None
    end
    else begin
      (* Algorithm R: the (n+1)-th sample replaces a random slot with
         probability cap/(n+1), keeping the reservoir uniform. *)
      let j = Dip_stdext.Prng.int t.prng (t.n + 1) in
      if j < cap then begin
        t.reservoir.(j) <- x;
        t.sorted <- None
      end
    end;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    let delta = x -. t.mean_acc in
    t.mean_acc <- t.mean_acc +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean_acc));
    if t.n = 1 then begin
      t.mn <- x;
      t.mx <- x
    end
    else begin
      if x < t.mn then t.mn <- x;
      if x > t.mx then t.mx <- x
    end

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
  let min t = t.mn
  let max t = t.mx

  let stddev t =
    if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.sub t.reservoir 0 (held t) in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  let percentile t p =
    if t.n = 0 then invalid_arg "Stats.Series.percentile: empty series";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Series.percentile: p out of range";
    let a = sorted t in
    let k = Array.length a in
    if k = 1 then a.(0)
    else begin
      (* Linear interpolation between order statistics (Hyndman–Fan
         type 7, the R/NumPy default). A ceiling-rank estimator
         degenerates on tiny reservoirs — with k samples every
         p ≥ 100·(k−1)/k collapses onto the max, so a 2-sample
         series reported its maximum as p75, p90 and p99 alike. *)
      let h = float_of_int (k - 1) *. p /. 100.0 in
      let lo = int_of_float (Float.floor h) in
      let hi = Stdlib.min (k - 1) (lo + 1) in
      let frac = h -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end

  let summary t =
    if t.n = 0 then "n=0"
    else
      Printf.sprintf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" t.n (mean t)
        (percentile t 50.0) (percentile t 99.0) (max t)
end
