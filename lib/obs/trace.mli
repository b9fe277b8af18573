(** Ring-buffered span/event tracer with Chrome [trace_event] export.

    Zero-cost-when-off: call sites guard on [!on] (one bool load)
    before building attributes, and {!with_span} runs its thunk
    directly when tracing is disabled.

    Multi-domain (PR 9): every domain records into its own private
    ring; the only shared emission-path state is an atomic sequence
    counter, so shard workers trace concurrently without locks or torn
    events.  {!events} merges all rings by seq; Chrome export maps the
    emitting domain to the [tid] track.  Exports are intended to run
    after worker domains have joined. *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type kind = Begin | End | Instant

type event = {
  seq : int;  (** global emission index, 0-based, totally ordered *)
  ts : float;  (** seconds (logical or wallclock, see {!set_clock}) *)
  kind : kind;
  name : string;
  cat : string;
  io : int;  (** I/O probe reading at emission (see {!set_io_probe}) *)
  dom : int;  (** id of the emitting domain *)
  attrs : (string * attr) list;
}

type span = {
  span_name : string;
  span_cat : string;
  span_dom : int;  (** domain the span ran on *)
  t0 : float;
  t1 : float;
  io_cost : int;  (** I/O probe delta across the span *)
  nest : int;  (** nesting depth, 0 = outermost *)
  span_attrs : (string * attr) list;
}

val on : bool ref
(** Guard every instrumentation site on [!on] before doing any work. *)

val enable : ?capacity:int -> unit -> unit
(** Start recording.  Default capacity 65536 events {e per domain};
    each domain's ring is allocated on its first emission (and reused
    after {!clear} while the capacity stays the same), and when a ring
    is full that domain's oldest events are overwritten (counted by
    {!dropped}).  Recording an event allocates nothing beyond the
    clock reading and the caller's attributes. *)

val disable : unit -> unit
val enabled : unit -> bool

val clear : unit -> unit
(** Drop all recorded events (every domain's ring) and reset the
    logical clock and sequence counter; keeps the enabled state. *)

val set_clock : (unit -> float) -> unit
(** Replace the timestamp source.  Default: a deterministic logical
    clock advancing 1 µs per event (atomic, shared by all domains), so
    tests emit stable traces.  A replacement must be safe to call from
    any domain. *)

val set_io_probe : (unit -> int) -> unit
(** Replace the I/O probe sampled at every event; span [io_cost] is
    the probe delta across the span.  Default: [fun () -> 0].  A
    replacement must be safe to call from any domain. *)

val reset_io_probe : unit -> unit

val begin_span : ?cat:string -> ?attrs:(string * attr) list -> string -> unit
val end_span : ?cat:string -> ?attrs:(string * attr) list -> string -> unit
val instant : ?cat:string -> ?attrs:(string * attr) list -> string -> unit

val with_span :
  ?cat:string -> ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f ()] in a span; the end event is
    emitted even if [f] raises.  When tracing is off this is exactly
    [f ()]. *)

val depth : unit -> int
(** Current span nesting depth {e of the calling domain} (begins minus
    ends so far). *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around since {!enable}/{!clear},
    summed over all domains. *)

val events : unit -> event list
(** Surviving events from every domain's ring, merged in global [seq]
    order. *)

val spans : unit -> span list
(** Begin/End pairs reconstructed from surviving events — paired
    within each domain, never across — ordered by completion.  Pairs
    broken by ring overflow are excluded (see {!unmatched}). *)

val unmatched : unit -> int
(** Begin events with no matching End in their domain's ring plus End
    events whose Begin scrolled out.  0 for a balanced, un-overflowed
    trace. *)

val to_chrome_json : unit -> Json.t
(** The merged rings as a Chrome [trace_event] JSON document — load it
    in [chrome://tracing] or [https://ui.perfetto.dev].  Each domain
    renders as its own [tid] track. *)

val write_chrome : string -> unit
val write_jsonl : string -> unit
(** One minified [trace_event] object per line. *)
