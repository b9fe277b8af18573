(** Cross-PR regression reports over the committed [BENCH_PR*.json]
    trajectory, plus a Chrome-trace lint (PR 9).

    Each bench artifact carries its own gate thresholds ("pass" flags,
    violation counters, measured-vs-minimum pairs); {!run} re-validates
    every file structurally — any [pass]/[*_pass] boolean must be
    true, any error-count field ([violations], [silent_wrong],
    [lost_acks], ...) must be 0, and any [value]/[min] pair must hold
    up to the slack factor — and extracts the headline numbers
    (speedups, I/O reductions, envelope constants) into one trajectory
    table. *)

type file_report = {
  path : string;
  pr : int;  (** -1 when the file has no "pr" field *)
  label : string;
  smoke : bool;
  metrics : (string * float) list;  (** headline numbers, path-keyed *)
  failures : string list;  (** violated invariants; empty = clean *)
  not_enforced : string list;
      (** gates recorded with [speedup_enforced: false]: listed,
          neither passed nor failed *)
}

type t = { files : file_report list; failures : string list }

val scan : ?slack:float -> string -> file_report
(** Validate one artifact.  [slack] (default 1.0) divides gate minima
    in measured-vs-min checks — 1.0 re-checks exactly what the bench
    enforced; CI may loosen slightly for runner noise.  An unreadable
    file reports one failure rather than raising. *)

val run : ?slack:float -> string list -> t
(** {!scan} every path; files sorted by PR number. *)

val pass : t -> bool

(** Every file's {!file_report.not_enforced} gates, in file order. *)
val not_enforced : t -> string list

val to_json : t -> Json.t
val render_table : t -> string
(** Fixed-width trajectory table (one row per headline metric), one
    "not enforced" line per skipped gate, then the failure list — what
    the CI log shows. *)

(** {1 Trace lint}

    Replays Begin/End pairing per [tid] (domain) track from an
    exported Chrome trace file — the artifact-level version of
    {!Trace.unmatched}. *)

type lint = {
  lint_path : string;
  events : int;
  begins : int;
  ends : int;
  domains : int;  (** distinct [tid] tracks that opened a span *)
  lint_unmatched : int;
  lint_failures : string list;
}

val lint_trace : string -> lint
val lint_pass : lint -> bool
val lint_to_json : lint -> Json.t
