(* Fixed-size log-linear latency histogram (PR 6, moved here in PR 9
   so the metrics registry and the workload layer share one
   implementation and one quantile routine).

   Values are bucketed geometrically: [per_decade] buckets per factor
   of ten between [lo] and [hi], plus an underflow bucket (index 0)
   and an overflow bucket (last index).  The array never grows, so a
   serving run of hundreds of thousands of queries records each sample
   with one increment and a constant memory footprint, and percentiles
   over the whole run cost one pass over the (small) bucket array.

   Percentile answers are bucket upper edges clamped to the recorded
   [min, max] — a conservative bound with relative error
   10^(1/per_decade) - 1 (≈ 9.6% at the default 25 buckets/decade),
   which is far below the run-to-run noise of any wall-clock
   measurement this histogram is used for. *)

type t = {
  lo : float;
  per_decade : int;
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create ?(lo = 1e-7) ?(hi = 100.0) ?(per_decade = 25) () =
  if not (lo > 0.0 && hi > lo) then invalid_arg "Histogram.create: bounds";
  if per_decade < 1 then invalid_arg "Histogram.create: per_decade";
  let decades = Float.log10 (hi /. lo) in
  let interior = int_of_float (Float.ceil (decades *. float_of_int per_decade)) in
  {
    lo;
    per_decade;
    buckets = Array.make (interior + 2) 0;
    n = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
  }

let nbuckets t = Array.length t.buckets

let index t v =
  if v < t.lo then 0
  else
    let i =
      1 + int_of_float (Float.log10 (v /. t.lo) *. float_of_int t.per_decade)
    in
    min i (nbuckets t - 1)

(* Upper edge of bucket [i]: the value a percentile falling in that
   bucket reports.  Underflow reports [lo]; overflow reports the
   recorded maximum (exact, and finite unlike the bucket's edge). *)
let upper_edge t i =
  if i = 0 then t.lo
  else if i = nbuckets t - 1 then t.vmax
  else t.lo *. (10.0 ** (float_of_int i /. float_of_int t.per_decade))

let add t v =
  if v < 0.0 || Float.is_nan v then invalid_arg "Histogram.add: negative";
  let i = index t v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then Float.nan else t.sum /. float_of_int t.n
let min_value t = if t.n = 0 then Float.nan else t.vmin
let max_value t = if t.n = 0 then Float.nan else t.vmax

let percentile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.percentile";
  if t.n = 0 then Float.nan
  else begin
    (* Rank of the q-quantile, 1-based; cumulative walk to its bucket. *)
    let rank =
      max 1 (int_of_float (Float.ceil (q *. float_of_int t.n)))
    in
    let acc = ref 0 and ans = ref (nbuckets t - 1) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= rank then begin
             ans := i;
             raise Exit
           end)
         t.buckets
     with Exit -> ());
    (* A bucket edge can lie outside the recorded range (all samples
       equal, say); the quantile of the samples never does. *)
    Float.min t.vmax (Float.max t.vmin (upper_edge t !ans))
  end

let compatible a b =
  a.lo = b.lo && a.per_decade = b.per_decade && nbuckets a = nbuckets b

let merge = function
  | [] -> invalid_arg "Histogram.merge: empty"
  | first :: _ as ts ->
      let m = { first with buckets = Array.make (nbuckets first) 0 } in
      m.n <- 0;
      m.sum <- 0.0;
      m.vmin <- infinity;
      m.vmax <- neg_infinity;
      List.iter
        (fun t ->
          if not (compatible first t) then
            invalid_arg "Histogram.merge: incompatible configurations";
          Array.iteri
            (fun i c -> m.buckets.(i) <- m.buckets.(i) + c)
            t.buckets;
          m.n <- m.n + t.n;
          m.sum <- m.sum +. t.sum;
          if t.n > 0 then begin
            if t.vmin < m.vmin then m.vmin <- t.vmin;
            if t.vmax > m.vmax then m.vmax <- t.vmax
          end)
        ts;
      m

(* Bucket walk for exporters (Prometheus cumulative [le] series).  The
   last bound is [infinity] — the overflow bucket — so a cumulative
   export always closes with an [+Inf] line equal to [count]. *)
let iter_buckets t f =
  let last = nbuckets t - 1 in
  Array.iteri
    (fun i c ->
      let le =
        if i = last then infinity
        else t.lo *. (10.0 ** (float_of_int i /. float_of_int t.per_decade))
      in
      f ~le ~count:c)
    t.buckets

let to_json t =
  Json.Obj
    ([
       ("count", Json.Int t.n);
       ("mean", Json.Float (mean t));
       ("min", Json.Float (min_value t));
       ("max", Json.Float (max_value t));
     ]
    @ List.map
        (fun q ->
          ( Printf.sprintf "p%g" (q *. 100.0),
            Json.Float (percentile t q) ))
        [ 0.50; 0.90; 0.95; 0.99 ])
