(** Precomputed open-loop traffic schedule (PR 6).

    Arrival times are fixed before the system under test runs — query
    [i] is due at [arrivals t].(i) regardless of server progress, so
    queueing delay under overload is measured rather than silently
    throttled (no coordinated omission).  Arrivals follow an on/off
    modulated Poisson process (bursty) with long-run offered [rate];
    the query mix draws from Zipf(θ)-popular range templates via the
    O(1) alias sampler.  Deterministic given [seed]. *)

type t = {
  arrivals : float array;  (** due times in seconds, nondecreasing *)
  queries : (int * int) array;  (** [(lo, hi)] due at [arrivals.(i)] *)
  rate : float;  (** configured long-run offered rate, queries/s *)
  duration : float;  (** time of the last arrival *)
}

val length : t -> int

(** [make ~seed ~sigma ~count ~rate ()] schedules [count] queries over
    alphabet [0..sigma-1] at long-run [rate] queries/second: 64
    distinct ranges (at most [sigma]) of Zipf(1) popularity, and
    ON/OFF sojourns of mean 50 ms / 10 ms.  Template widths are drawn
    from the shared burst-length sampler ({!Gen.burst_length});
    [burst] (default [Gen.Uniform_burst]) selects the width law, so
    e.g. [Gen.Fixed_burst] gives a query mix of exactly four span
    sizes. *)
val make :
  ?burst:Gen.burst ->
  seed:int ->
  sigma:int ->
  count:int ->
  rate:float ->
  unit ->
  t
