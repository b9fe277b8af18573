(* Open-loop traffic schedule (PR 6).

   Open-loop means arrival times are fixed before the system runs:
   query i becomes due at [arrivals.(i)] whether or not the server has
   finished query i-1, so queueing delay under overload shows up in
   the measured latency instead of silently throttling the offered
   rate (the closed-loop failure mode known as coordinated omission).
   The whole schedule is precomputed — deterministic given the seed,
   and zero generator work on the serving path beyond an array read.

   Arrivals: an on/off modulated Poisson process (MMPP-2 with a silent
   OFF state).  ON and OFF sojourns are exponential with means
   [mean_on] and [mean_off]; within ON, arrivals are Poisson with a
   rate inflated by (mean_on + mean_off) / mean_on so the long-run
   offered rate equals [rate].

   Query mix: 64 distinct range queries, drawn per arrival from a
   Zipf(1) popularity distribution over templates via the
   alias table — the hot-query skew a shared-decode batch exploits.
   Template ranges mix point, narrow and wide spans over [0..σ-1]. *)

module Rng = Hashing.Universal.Rng

type t = {
  arrivals : float array; (* seconds, nondecreasing *)
  queries : (int * int) array; (* queries.(i) is due at arrivals.(i) *)
  rate : float;
  duration : float; (* last arrival time *)
}

let length t = Array.length t.arrivals

let exponential rng mean =
  (* Rng.float is in [0;1); 1-u is in (0;1], so log is finite. *)
  -.mean *. Float.log (1.0 -. Rng.float rng)

(* Template widths reuse the workload burst-length sampler (PR 7):
   narrow/medium/wide spans are bursts at runs sigma/32, sigma/8 and
   sigma/2, so the width law of the query mix and the run law of the
   data come from the same knob.  The default [Uniform_burst] draws
   [1 + U[0, 2·run)] — exactly the seed's width mixture whenever sigma
   is a multiple of 32 (it is in the serve bench). *)
let make_templates ?(burst = Gen.Uniform_burst) rng ~sigma ~templates =
  let span frac = Gen.burst_length burst ~run:(max 1 (sigma / frac)) rng in
  Array.init templates (fun _ ->
      let lo = Rng.below rng sigma in
      let width =
        match Rng.below rng 4 with
        | 0 -> 1 (* point *)
        | 1 -> span 32 (* narrow *)
        | 2 -> span 8 (* medium *)
        | _ -> span 2 (* wide, may clamp at σ-1 *)
      in
      (lo, min (sigma - 1) (lo + width - 1)))

let mean_on = 0.050
let mean_off = 0.010

let make ?burst ~seed ~sigma ~count ~rate () =
  if count < 1 then invalid_arg "Traffic.make: count";
  if not (rate > 0.0) then invalid_arg "Traffic.make: rate";
  let templates = min 64 (max 1 sigma) in
  let rng = Rng.create ~seed in
  let ranges = make_templates ?burst rng ~sigma ~templates in
  let popularity =
    Gen.Alias.create (Gen.zipf_weights ~sigma:templates ~theta:1.0)
  in
  let burst_rate = rate *. ((mean_on +. mean_off) /. mean_on) in
  let arrivals = Array.make count 0.0 in
  let queries = Array.make count (0, 0) in
  let now = ref 0.0 in
  (* Time left in the current ON sojourn; OFF gaps are inserted
     whenever it runs out. *)
  let on_left = ref (exponential rng mean_on) in
  for i = 0 to count - 1 do
    let gap = ref (exponential rng (1.0 /. burst_rate)) in
    while !gap > !on_left do
      (* The residual Poisson gap restarts after the pause — memoryless,
         so dropping the consumed part keeps the ON-rate exact. *)
      gap := !gap -. !on_left;
      now := !now +. !on_left;
      now := !now +. exponential rng mean_off;
      on_left := exponential rng mean_on
    done;
    on_left := !on_left -. !gap;
    now := !now +. !gap;
    arrivals.(i) <- !now;
    queries.(i) <- ranges.(Gen.Alias.draw popularity rng)
  done;
  { arrivals; queries; rate; duration = !now }
