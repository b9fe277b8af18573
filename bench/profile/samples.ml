(* Raw timing samples with exact order statistics.

   Percentiles are nearest-rank over the sorted raw samples, so every
   reported percentile is one of the measured values and lies within
   [min, max] — unlike [Obs.Histogram], whose answers are bucket upper
   edges about 26% apart. *)

(* Seconds on the monotonic clock, at nanosecond resolution: some of
   the timed calls take a few microseconds, where [Unix.gettimeofday]'s
   microsecond steps would show. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Busy-wait until [now () >= t] without allocating.  Spinning on
   [now] boxes every reading, fills the minor heap in about 5 ms, and
   the collection, which stops every domain, lands on the deadline. *)
let spin_until t =
  let due = Int64.of_float (t *. 1e9) in
  while Int64.compare (Monotonic_clock.now ()) due < 0 do
    ()
  done

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len

let concat ts =
  let t = create () in
  List.iter (fun s -> for i = 0 to s.len - 1 do add t s.data.(i) done) ts;
  t

(* The element-wise minimum of series recorded over the same
   operations in the same order: each operation's least disturbed
   timing. *)
let min_each = function
  | [] -> create ()
  | first :: rest ->
      let data = Array.sub first.data 0 first.len in
      List.iter
        (fun t ->
          if t.len <> first.len then invalid_arg "Samples.min_each: lengths differ";
          for i = 0 to t.len - 1 do
            data.(i) <- Float.min data.(i) t.data.(i)
          done)
        rest;
      { data = (if first.len = 0 then Array.make 1 0.0 else data); len = first.len }

let total t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

(* [mean] and the quantiles are 0 for an empty series (a generator
   that never waited, a pass without a compaction). *)
let mean t = if t.len = 0 then 0.0 else total t /. float_of_int t.len

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [q] of the samples
   at or below it. *)
let quantile_sorted a q =
  let m = Array.length a in
  if m = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int m)) in
    a.(max 0 (min (m - 1) (rank - 1)))

let quantile t q = quantile_sorted (sorted t) q

(* The highest percentile on the ladder that still has at least ten
   samples above it; [None] below ten samples. *)
let ladder = [ 0.9999; 0.999; 0.99; 0.95; 0.9; 0.5 ]

let supported_tail t =
  List.find_opt
    (fun q -> float_of_int t.len *. (1.0 -. q) >= 10.0 -. 1e-9)
    ladder

(* First quartile, median and third quartile of a small list of run
   values, computed exactly as Python's
   [statistics.quantiles(values, n=4)] (its default "exclusive"
   method), so spreads read the same here and in any script. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)
