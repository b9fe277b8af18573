(** Always-on metrics registry (PR 9): atomic counters, gauges and
    log-linear latency histograms ({!Histogram} cells), striped per
    domain and merged at scrape time, exported as JSON and Prometheus
    text format.

    Handles are meant to be created once (at module initialization)
    and used directly: creation takes the registry mutex, operations
    on a handle never do.  Registration is idempotent by name; asking
    for an existing name with a different metric kind raises
    [Invalid_argument].  A scrape concurrent with updates reads a
    value between the before and after counts — never a torn one
    (counters and gauges are atomics; histogram stripes are
    mutex-protected). *)

type counter
type gauge
type histogram

val counter : string -> counter

val incr : ?by:int -> counter -> unit
(** One [Atomic.fetch_and_add] on the calling domain's stripe — safe
    and contention-free on per-block hot paths. *)

val counter_value : counter -> int
(** Sum of the per-domain stripes. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?lo:float -> ?hi:float -> ?per_decade:int -> string -> histogram
(** Same bucket defaults as {!Histogram.create}. *)

val observe : histogram -> float -> unit
(** Record a sample into the calling domain's stripe (one short
    mutex section). *)

val error_histogram : string -> histogram
(** Estimate-vs-actual error histogram (PR 10): ratio-scaled buckets
    ([lo = 1e-4], [hi = 1e4], 10 per decade) for samples recorded with
    {!observe_ratio}.  A mass concentrated at 1.0 means estimates
    track actuals; tails above/below 1.0 are under-/over-estimates. *)

val observe_ratio : histogram -> est:float -> actual:float -> unit
(** Record [(1 + actual) / (1 + est)] — finite for zero-valued counts;
    raises [Invalid_argument] on negative inputs. *)

val snapshot : histogram -> Histogram.t
(** Merge of the per-domain stripes at this instant. *)

val set_clock : (unit -> float) -> unit
(** Clock behind {!now}/{!time}.  Default: a deterministic atomic
    logical clock (1 µs per reading, shared by all domains) so tests
    scrape stable values; drivers install wallclock.  A replacement
    must be safe to call from any domain. *)

val reset_clock : unit -> unit
val now : unit -> float

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and records its duration (clock delta) into
    [h], even if [f] raises. *)

type phase
(** A phase of an index query: a [phase_<name>_total] counter, a
    [phase_<name>_seconds] histogram and the trace span (category
    ["phase"]) that per-phase I/O attribution reads from span probe
    deltas.  The handle holds its counter and histogram, so running a
    phase looks nothing up. *)

val directory : phase
val rank_select : phase
val payload : phase
val verify : phase
val repair : phase
(** The index phases, made at module initialisation, so every call
    site shares one resolved handle per name. *)

val in_phase : phase -> (unit -> 'a) -> 'a
(** [in_phase p f] bumps [p]'s counter, times [f] into its histogram
    (even if [f] raises) and, when tracing is on, wraps [f] in its
    trace span. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] is {!in_phase} on the phase [name], registered (or
    found, registration being idempotent) under the registry mutex on
    every call — for a one-off phase; per-query sites use the handles
    above. *)

val names : unit -> string list
(** Registered metric names, sorted. *)

val reset : unit -> unit
(** Zero every registered metric (registrations survive) and rewind
    the default logical clock — how the bench isolates scenarios. *)

val to_json : unit -> Json.t
(** One object: counters as ints, gauges as floats, histograms as
    {!Histogram.to_json} objects; keys sorted. *)

val to_prometheus : unit -> string
(** Prometheus text exposition format: [# TYPE] lines, counter/gauge
    samples, and cumulative [le] bucket series with [_sum]/[_count]
    for histograms. *)
