(* Cross-PR regression reports over the committed BENCH_PR*.json
   trajectory (PR 9).

   Every bench section since PR 1 writes its own artifact with its own
   gate thresholds baked into the file ("pass" flags, violation
   counters, measured-vs-minimum pairs).  This module re-validates all
   of them at once — independently of the bench binaries that wrote
   them — so CI catches a regressed artifact no matter which PR's
   section produced it, and renders the headline numbers (wallclock
   speedups, I/O reductions, fitted envelope constants) as one
   trajectory table.

   The checks are structural, not schema-bound, so PR 10's artifact is
   covered the day it lands:

   - every boolean field named [pass] (or [overhead_pass], any
     [*_pass]) must be [true];
   - every integer field whose name spells an error count
     ([violations], [silent_wrong], [lost_acks], [wrong_answers],
     [mismatches], ...) must be 0;
   - every object carrying both a measured [value] and a gate [min]
     must satisfy [value >= min / slack]; the serve gate's
     [speedup_measured]/[speedup_min] pair is checked the same way,
     but only when its own [speedup_enforced] flag is true (single-
     core hosts legitimately fail it); a pair recorded as not
     enforced is listed as such, never read as a pass.

   [slack] (default 1.0) loosens only the measured-vs-min checks:
   thresholds inside the files were already enforced by the bench that
   wrote them, so re-checking at slack 1.0 is exact reproduction, and
   CI can pass a small factor (e.g. 1.25) to tolerate host noise when
   artifacts are regenerated on the runner. *)

type file_report = {
  path : string;
  pr : int;  (** -1 when the file has no "pr" field *)
  label : string;
  smoke : bool;
  metrics : (string * float) list;  (** headline trajectory numbers *)
  failures : string list;  (** violated invariants, empty = clean *)
  not_enforced : string list;  (** gates the bench recorded as skipped *)
}

type t = { files : file_report list; failures : string list }

let zero_keys =
  [
    "violations";
    "envelope_violations";
    "yi_violations";
    "violations_below";
    "silent_wrong";
    "lost_acks";
    "wrong_answers";
    "mismatches";
    "answer_mismatches";
    "ledger_failures";
    "differential_mismatches";
    "unmatched_spans";
    "event_counter_mismatches";
    "double_crash_failures";
    "payload_phases";
  ]

(* Keys whose numeric values are worth a row in the trajectory table:
   wallclock speedups, I/O reductions, envelope constants, overheads. *)
let headline_keys =
  [
    "c_fit";
    "c";
    "enabled_overhead_pct";
    "capacity_probe_qps";
    "static_speedup_k64";
    "zipf_alias_speedup";
    "clustered_io_reduction";
    "mixed_hybrid_over_best";
    "gamma_decode_speedup_tracing_off";
    "counter_overhead_pct";
    "planner_io_reduction";
  ]

let is_pass_key k = k = "pass" || String.length k > 5 && Filename.check_suffix k "_pass"

let num = Json.to_float_opt

(* Element label for paths through lists: the element's "name" field
   when it has one (builders, workloads, benchmarks), else its index. *)
let elt_label i v =
  match Json.member "name" v with
  | Some (Json.String s) -> s
  | _ -> string_of_int i

let walk ~slack root =
  let metrics = ref [] and failures = ref [] and not_enforced = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let rec go path v =
    let sub k = if path = "" then k else path ^ "." ^ k in
    match v with
    | Json.Obj fields ->
        (* Measured-vs-minimum pairs, slack-loosened. *)
        (match (Json.member "value" v, Json.member "min" v) with
        | Some mv, Some mn -> (
            match (num mv, num mn) with
            | Some value, Some min_ ->
                if value < (min_ /. slack) -. 1e-9 then
                  fail "%s: value %g below min %g (slack %g)" path value min_
                    slack
            | _ -> ())
        | _ -> ());
        (match
           ( Json.member "speedup_measured" v,
             Json.member "speedup_min" v,
             Json.member "speedup_enforced" v )
         with
        | Some mv, Some mn, enforced -> (
            let enforced =
              match enforced with Some (Json.Bool b) -> b | _ -> true
            in
            match (num mv, num mn) with
            | Some value, Some min_ when enforced ->
                if value < (min_ /. slack) -. 1e-9 then
                  fail "%s: speedup %g below min %g (slack %g)" path value min_
                    slack
            | Some value, Some min_ ->
                not_enforced :=
                  Printf.sprintf "%s: speedup %g vs min %g" path value min_
                  :: !not_enforced
            | _ -> ())
        | _ -> ());
        List.iter
          (fun (k, v) ->
            (match v with
            | Json.Bool b when is_pass_key k ->
                if not b then fail "%s.%s is false" path k
            | Json.Int i when List.mem k zero_keys ->
                if i <> 0 then fail "%s.%s = %d (expected 0)" path k i
            | (Json.Int _ | Json.Float _) when List.mem k headline_keys ->
                metrics :=
                  (sub k, Option.get (num v)) :: !metrics
            | _ -> ());
            go (sub k) v)
          fields
    | Json.List items ->
        List.iteri (fun i v -> go (sub (elt_label i v)) v) items
    | _ -> ()
  in
  go "" root;
  (List.rev !metrics, List.rev !failures, List.rev !not_enforced)

let scan ?(slack = 1.0) path =
  match Json.of_file path with
  | Error msg ->
      {
        path;
        pr = -1;
        label = "";
        smoke = false;
        metrics = [];
        failures = [ Printf.sprintf "%s: unreadable (%s)" path msg ];
        not_enforced = [];
      }
  | Ok root ->
      let metrics, failures, not_enforced = walk ~slack root in
      let pr =
        match Json.member "pr" root with Some (Json.Int i) -> i | _ -> -1
      in
      let label =
        match Json.member "label" root with
        | Some (Json.String s) -> s
        | _ -> ""
      in
      let smoke =
        match Json.member "smoke" root with Some (Json.Bool b) -> b | _ -> false
      in
      let prefix = List.map (fun f -> path ^ ": " ^ f) in
      let failures = prefix failures and not_enforced = prefix not_enforced in
      { path; pr; label; smoke; metrics; failures; not_enforced }

let run ?slack paths =
  let files =
    List.map (scan ?slack) paths
    |> List.sort (fun a b -> compare (a.pr, a.path) (b.pr, b.path))
  in
  { files; failures = List.concat_map (fun (f : file_report) -> f.failures) files }

let pass t = t.failures = []

let not_enforced t =
  List.concat_map (fun (f : file_report) -> f.not_enforced) t.files

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let to_json t =
  Json.Obj
    [
      ( "files",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("path", Json.String f.path);
                   ("pr", Json.Int f.pr);
                   ("label", Json.String f.label);
                   ("smoke", Json.Bool f.smoke);
                   ( "metrics",
                     Json.Obj
                       (List.map (fun (k, v) -> (k, Json.Float v)) f.metrics)
                   );
                   ("failures", strings f.failures);
                   ("not_enforced", strings f.not_enforced);
                 ])
             t.files) );
      ("failures", Json.Int (List.length t.failures));
      ("not_enforced", Json.Int (List.length (not_enforced t)));
      ("pass", Json.Bool (pass t));
    ]

(* Markdown-ish fixed-width trajectory table for logs and the README
   sample: one row per headline metric, grouped by PR. *)
let render_table t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-4s %-44s %14s  %s\n" "PR" "metric" "value" "label");
  List.iter
    (fun f ->
      List.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Printf.sprintf "%-4s %-44s %14.6g  %s%s\n"
               (if f.pr >= 0 then string_of_int f.pr else "?")
               k v f.label
               (if f.smoke then " [smoke]" else "")))
        f.metrics)
    t.files;
  (* A skipped gate is neither a pass nor a regression: say so. *)
  List.iter
    (fun s -> Buffer.add_string b ("not enforced: " ^ s ^ "\n"))
    (not_enforced t);
  (match t.failures with
  | [] -> Buffer.add_string b "regressions: none\n"
  | fs ->
      Buffer.add_string b
        (Printf.sprintf "regressions: %d\n" (List.length fs));
      List.iter (fun s -> Buffer.add_string b ("  FAIL " ^ s ^ "\n")) fs);
  Buffer.contents b

(* --- trace lint (PR 9 CI step) ---

   Re-reads an exported Chrome trace and replays Begin/End pairing per
   [tid] (domain) track, exactly the invariant the in-process
   [Trace.unmatched] enforces — but from the artifact, so a trace
   written by any bench section is checked even after the process that
   recorded it is gone. *)

type lint = {
  lint_path : string;
  events : int;
  begins : int;
  ends : int;
  domains : int;
  lint_unmatched : int;
  lint_failures : string list;
}

let lint_pass l = l.lint_failures = [] && l.lint_unmatched = 0

let lint_trace path =
  let failf fs fmt = Printf.ksprintf (fun s -> s :: fs) fmt in
  match Json.of_file path with
  | Error msg ->
      {
        lint_path = path;
        events = 0;
        begins = 0;
        ends = 0;
        domains = 0;
        lint_unmatched = 0;
        lint_failures = [ Printf.sprintf "unreadable (%s)" msg ];
      }
  | Ok root -> (
      match Json.member "traceEvents" root with
      | Some (Json.List evs) ->
          let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
          let stack_of tid =
            match Hashtbl.find_opt stacks tid with
            | Some s -> s
            | None ->
                let s = ref [] in
                Hashtbl.add stacks tid s;
                s
          in
          let begins = ref 0 and ends = ref 0 and unmatched = ref 0 in
          let failures = ref [] in
          List.iter
            (fun e ->
              let str k =
                match Json.member k e with
                | Some (Json.String s) -> Some s
                | _ -> None
              in
              let tid =
                match Json.member "tid" e with
                | Some (Json.Int i) -> i
                | _ -> 0
              in
              match (str "ph", str "name") with
              | Some "B", Some name ->
                  Stdlib.incr begins;
                  let s = stack_of tid in
                  s := name :: !s
              | Some "E", Some name -> (
                  Stdlib.incr ends;
                  let s = stack_of tid in
                  match !s with
                  | top :: tl when top = name -> s := tl
                  | top :: _ ->
                      Stdlib.incr unmatched;
                      failures :=
                        failf !failures "tid %d: E %S closes open span %S" tid
                          name top
                  | [] ->
                      Stdlib.incr unmatched;
                      failures :=
                        failf !failures "tid %d: E %S with no open span" tid
                          name)
              | _ -> ())
            evs;
          Hashtbl.iter
            (fun tid s ->
              List.iter
                (fun name ->
                  Stdlib.incr unmatched;
                  failures :=
                    failf !failures "tid %d: B %S never ended" tid name)
                !s)
            stacks;
          {
            lint_path = path;
            events = List.length evs;
            begins = !begins;
            ends = !ends;
            domains = Hashtbl.length stacks;
            lint_unmatched = !unmatched;
            lint_failures = List.rev !failures;
          }
      | _ ->
          {
            lint_path = path;
            events = 0;
            begins = 0;
            ends = 0;
            domains = 0;
            lint_unmatched = 0;
            lint_failures = [ "no traceEvents array" ];
          })

let lint_to_json l =
  Json.Obj
    [
      ("path", Json.String l.lint_path);
      ("events", Json.Int l.events);
      ("begins", Json.Int l.begins);
      ("ends", Json.Int l.ends);
      ("domains", Json.Int l.domains);
      ("unmatched", Json.Int l.lint_unmatched);
      ( "failures",
        Json.List (List.map (fun s -> Json.String s) l.lint_failures) );
      ("pass", Json.Bool (lint_pass l));
    ]
