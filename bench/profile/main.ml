(* bench/profile: the repository's end-to-end benchmark.

   Usage:
     main.exe [--seed S] [--workload NAME]... [--trace [0|1]] [--smoke]
              [--repeat K] [--out PROFILE.json]
     main.exe --compare A.json B.json
     main.exe --smoke --trace --check BENCHMARK.json

   Every workload runs in its own child process (this executable,
   re-executed), which is killed after a deadline: a hang counts as a
   failed workload instead of stalling the run, and peak RSS is the
   workload's own.  [--trace 0] (the default) reports the end-to-end
   metrics, [--trace 1] the per-layer metrics of the traced run, and a
   bare [--trace] both.  The last line of standard output is one JSON
   object: [correct], [attempted], [failed] and [metrics].

   The standard benchmark command line also passes [--seconds N]; it is
   accepted and has no effect, since every workload fixes its operation
   count (see {!Workloads}). *)

let fi = float_of_int

(* ---------------------------------------------------------------- *)
(* JSON output with every digit of a float (Obs.Json keeps six). *)

let rec json_string b (j : Obs.Json.t) =
  let add = Buffer.add_string b in
  match j with
  | Obs.Json.Null -> add "null"
  | Obs.Json.Bool v -> add (if v then "true" else "false")
  | Obs.Json.Int i -> add (string_of_int i)
  | Obs.Json.Float x ->
      if Float.is_nan x then add "null"
      else if Float.is_integer x && Float.abs x < 1e15 then add (Printf.sprintf "%.1f" x)
      else add (Printf.sprintf "%.17g" x)
  | Obs.Json.String s -> add (Obs.Json.to_string ~minify:true (Obs.Json.String s))
  | Obs.Json.List l ->
      add "[";
      List.iteri (fun i x -> if i > 0 then add ","; json_string b x) l;
      add "]"
  | Obs.Json.Obj l ->
      add "{";
      List.iteri
        (fun i (k, x) ->
          if i > 0 then add ",";
          json_string b (Obs.Json.String k);
          add ":";
          json_string b x)
        l;
      add "}"

let to_line j =
  let b = Buffer.create 256 in
  json_string b j;
  Buffer.contents b

let member k j = Option.value ~default:Obs.Json.Null (Obs.Json.member k j)
let num k j = Option.value ~default:nan (Obs.Json.to_float_opt (member k j))
let int_of k j = int_of_float (num k j)

let assoc_of j =
  match j with Obs.Json.Obj l -> l | _ -> []

(* ---------------------------------------------------------------- *)
(* Child: run one workload, print one JSON line. *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> fi kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let child ~name ~(ctx : Workloads.ctx) ~chrome =
  let r = Workloads.run name ctx in
  let t = r.Workloads.tally in
  let failed = t.raised + t.wrong in
  let error_rate = fi failed /. fi (max 1 t.attempted) in
  (* A layer a workload does not run reports 0 for its metrics. *)
  let idle_layers =
    if not ctx.trace then []
    else
      List.filter_map
        (fun (m : Spec.t) ->
          if List.mem_assoc m.name r.metrics then None else Some (m.name, 0.0))
        Spec.per_layer
  in
  let metrics =
    r.metrics @ idle_layers
    @ (if ctx.trace then [] else [ ("peak_rss_mb", peak_rss_mb ()) ])
    @ [ ("error_rate", error_rate) ]
  in
  (match (chrome, r.chrome) with
  | Some path, Some doc -> Obs.Json.to_file ~minify:true path doc
  | _ -> ());
  print_endline
    (to_line
       (Obs.Json.Obj
          [
            ("workload", Obs.Json.String name);
            ("traced", Obs.Json.Bool ctx.trace);
            ("attempted", Obs.Json.Int t.attempted);
            ("raised", Obs.Json.Int t.raised);
            ("wrong", Obs.Json.Int t.wrong);
            ("failed", Obs.Json.Int failed);
            ("unhealthy", Obs.Json.Int t.unhealthy);
            ( "metrics",
              Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) metrics) );
            ("info", Obs.Json.Obj r.info);
          ]))

(* ---------------------------------------------------------------- *)
(* Parent: one child process per run, killed at a deadline. *)

let spawn_child ~deadline args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let stop = Samples.now () +. deadline in
  let rec pump () =
    let left = stop -. Samples.now () in
    if left <= 0.0 then `Timeout
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> pump ()
      | _ ->
          let k = Unix.read rd chunk 0 (Bytes.length chunk) in
          if k = 0 then `Eof
          else begin
            Buffer.add_subbytes buf chunk 0 k;
            pump ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let outcome = pump () in
  Unix.close rd;
  if outcome = `Timeout then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let status = reap () in
  let last_line =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.rev
    |> function l :: _ -> Some l | [] -> None
  in
  match (outcome, status, last_line) with
  | `Eof, Unix.WEXITED 0, Some l -> (
      match Obs.Json.of_string l with
      | Ok j -> Ok j
      | Error e -> Error ("unreadable child output: " ^ e))
  | `Timeout, _, _ -> Error (Printf.sprintf "killed after the %.0f s deadline" deadline)
  | _, Unix.WEXITED c, _ -> Error (Printf.sprintf "child exited with code %d" c)
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "child killed by signal %d" s)

(* A run that produced no result counts as one failed operation out of
   one attempted: error_rate 1. *)
let failed_run name traced why =
  prerr_endline (Printf.sprintf "%s: %s" name why);
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String name);
      ("traced", Obs.Json.Bool traced);
      ("attempted", Obs.Json.Int 1);
      ("raised", Obs.Json.Int 1);
      ("wrong", Obs.Json.Int 0);
      ("failed", Obs.Json.Int 1);
      ("unhealthy", Obs.Json.Int 0);
      ("metrics", Obs.Json.Obj [ ("error_rate", Obs.Json.Float 1.0) ]);
      ("info", Obs.Json.Obj [ ("error", Obs.Json.String why) ]);
    ]

type opts = {
  seed : int;
  workloads : string list;
  modes : bool list;  (** false = untraced, true = traced *)
  smoke : bool;
  repeat : int;
  out : string option;
}

let run_one o ~name ~traced ~rep =
  let chrome =
    match o.out with
    | Some out when traced && rep = 0 ->
        let base = Filename.remove_extension out in
        [ "--chrome"; Printf.sprintf "%s.%s.trace.json" base name ]
    | _ -> []
  in
  let args =
    [ "--child"; name; "--seed"; string_of_int o.seed; "--trace"; (if traced then "1" else "0") ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ chrome
  in
  match spawn_child ~deadline:(if o.smoke then 60.0 else 170.0) args with
  | Ok j -> j
  | Error why -> failed_run name traced why

(* ---------------------------------------------------------------- *)
(* Summaries *)

let runs_of w = match member "runs" w with Obs.Json.List l -> l | _ -> []

(* Values of [metric] across the runs of one workload entry. *)
let values w metric =
  List.filter_map
    (fun r -> Obs.Json.to_float_opt (member metric (member "metrics" r)))
    (runs_of w)

let metric_names w =
  List.sort_uniq compare
    (List.concat_map (fun r -> List.map fst (assoc_of (member "metrics" r))) (runs_of w))

let unit_of name = (Spec.find name).Spec.unit_

let print_table o entries =
  List.iter
    (fun w ->
      let name = match member "workload" w with Obs.Json.String s -> s | _ -> "?" in
      let runs = runs_of w in
      let attempted = List.fold_left (fun a r -> a + int_of "attempted" r) 0 runs in
      let failed = List.fold_left (fun a r -> a + int_of "failed" r) 0 runs in
      let unhealthy = List.fold_left (fun a r -> a + int_of "unhealthy" r) 0 runs in
      Printf.printf "\n== %s (seed %d, %d run%s): %d operations, %d failed%s\n" name o.seed
        (List.length runs) (if List.length runs = 1 then "" else "s") attempted failed
        (if unhealthy > 0 then Printf.sprintf ", %d unhealthy run(s)" unhealthy else "");
      (match runs with
      | r :: _ -> (
          match member "input_digest" (member "info" r) with
          | Obs.Json.String d -> Printf.printf "   input digest %s\n" d
          | _ -> ())
      | [] -> ());
      List.iter
        (fun m ->
          let q1, med, q3 = Samples.quartiles (values w m) in
          let spread =
            if List.length runs > 1 && med <> 0.0 then
              Printf.sprintf "   [q1 %.6g, q3 %.6g, spread %.1f%%]" q1 q3
                ((q3 -. q1) /. Float.abs med *. 100.0)
            else ""
          in
          Printf.printf "   %-36s %14.6g %-6s%s\n" m med (unit_of m) spread)
        (metric_names w);
      match runs with
      | [] -> ()
      | r :: _ ->
          List.iter
            (fun key ->
              match member key (member "info" r) with
              | Obs.Json.Obj _ as s ->
                  Printf.printf "   %-36s n=%d p50 %.4g ms, p99 %.4g ms%s\n"
                    (key ^ " (run 1)")
                    (int_of "count" s) (num "p50_ms" s) (num "p99_ms" s)
                    (match member "tail_pct" s with
                    | Obs.Json.Null -> ""
                    | _ ->
                        Printf.sprintf ", p%g %.4g ms (highest with >=10 beyond)"
                          (num "tail_pct" s) (num "tail_ms" s))
              | _ -> ())
            [ "query_latency"; "update_latency"; "generator_lag" ])
    entries

(* The result line: gated end-to-end metrics for an untraced run,
   per-layer metrics for a traced one; names carry the workload when
   the run covers several. *)
let result_line o entries =
  let prefix = List.length o.workloads > 1 in
  let wanted traced =
    if traced then Spec.per_layer else Spec.gated
  in
  let all_runs = List.concat_map runs_of entries in
  let attempted = List.fold_left (fun a r -> a + int_of "attempted" r) 0 all_runs in
  let failed = List.fold_left (fun a r -> a + int_of "failed" r) 0 all_runs in
  let metrics =
    List.concat_map
      (fun w ->
        let name = match member "workload" w with Obs.Json.String s -> s | _ -> "?" in
        let traced = member "traced" w = Obs.Json.Bool true in
        List.filter_map
          (fun (m : Spec.t) ->
            match values w m.name with
            | [] -> None
            | vs ->
                let _, med, _ = Samples.quartiles vs in
                let key = if prefix then name ^ "." ^ m.name else m.name in
                Some
                  ( key,
                    Obs.Json.Obj
                      [ ("value", Obs.Json.Float med); ("unit", Obs.Json.String m.unit_) ] ))
          (wanted traced))
      entries
  in
  let complete =
    List.for_all
      (fun w ->
        let traced = member "traced" w = Obs.Json.Bool true in
        List.for_all (fun (m : Spec.t) -> values w m.name <> []) (wanted traced))
      entries
  in
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (failed = 0 && complete));
      ("attempted", Obs.Json.Int (max 1 attempted));
      ("failed", Obs.Json.Int failed);
      ("metrics", Obs.Json.Obj metrics);
    ]

let run_all o =
  let entries =
    List.concat_map
      (fun traced ->
        List.map
          (fun name ->
            let runs =
              List.init o.repeat (fun rep ->
                  if not o.smoke then
                    prerr_endline
                      (Printf.sprintf "running %s%s (seed %d, run %d/%d)" name
                         (if traced then " traced" else "") o.seed (rep + 1) o.repeat);
                  run_one o ~name ~traced ~rep)
            in
            Obs.Json.Obj
              [
                ("workload", Obs.Json.String name);
                ("traced", Obs.Json.Bool traced);
                ("runs", Obs.Json.List runs);
              ])
          o.workloads)
      o.modes
  in
  print_table o entries;
  (match o.out with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (to_line
           (Obs.Json.Obj
              [
                ("seed", Obs.Json.Int o.seed);
                ("smoke", Obs.Json.Bool o.smoke);
                ("repeat", Obs.Json.Int o.repeat);
                ("entries", Obs.Json.List entries);
              ]));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" path
  | None -> ());
  entries

(* ---------------------------------------------------------------- *)
(* --compare A.json B.json: per workload and metric, B (the change)
   against A (the parent).  A workload with a failed operation or an
   unhealthy run in either file is not compared and fails the
   comparison.  A count that is exact for a seed, compared on the same
   seed, regresses when B's is worse at all.  Any other end-to-end
   metric regresses when B's median is worse than A's by more than the
   metric's bound; it is unresolved when A's own spread exceeds the
   bound (unless every run of B beats every run of A); a gain needs B
   to win at least nine tenths of the run pairs and the medians to
   differ by more than A's quartile spread. *)

let compare_files a b =
  let load f =
    match Obs.Json.of_file f with
    | Ok j ->
        ( (member "seed" j, member "smoke" j),
          match member "entries" j with Obs.Json.List l -> l | _ -> [] )
    | Error e -> failwith (f ^ ": " ^ e)
  in
  let key w =
    ( (match member "workload" w with Obs.Json.String s -> s | _ -> "?"),
      member "traced" w = Obs.Json.Bool true )
  in
  let (inputs_a, ea) = load a and (inputs_b, eb) = load b in
  let same_inputs = inputs_a = inputs_b in
  let failed w =
    List.fold_left (fun n r -> n + int_of "failed" r + int_of "unhealthy" r) 0 (runs_of w)
  in
  let regressions = ref 0 in
  Printf.printf "%-13s %-30s %12s %12s %8s %6s  %s\n" "workload" "metric" "A median"
    "B median" "change" "bound" "verdict";
  List.iter
    (fun wa ->
      match List.find_opt (fun wb -> key wb = key wa) eb with
      | None -> ()
      | Some wb when failed wa + failed wb > 0 ->
          incr regressions;
          Printf.printf "%-13s failed operations or unhealthy runs: A %d, B %d; not compared\n"
            (fst (key wa)) (failed wa) (failed wb)
      | Some wb ->
          List.iter
            (fun m ->
              let va = values wa m and vb = values wb m in
              if va <> [] && vb <> [] then begin
                let q1, ma, q3 = Samples.quartiles va in
                let _, mb, _ = Samples.quartiles vb in
                let spec = try Some (Spec.find m) with Not_found -> None in
                let sign =
                  match spec with Some { better = Spec.Higher; _ } -> -1.0 | _ -> 1.0
                in
                (* Positive [worse] means B is worse than A. *)
                let worse = if ma = 0.0 then 0.0 else sign *. (mb -. ma) /. Float.abs ma in
                let verdict, bound =
                  match spec with
                  | Some { exact = true; _ } when same_inputs ->
                      let v =
                        if worse > 0.0 then begin
                          incr regressions;
                          "REGRESSION"
                        end
                        else if worse < 0.0 then "gain"
                        else "no change"
                      in
                      (v, "exact")
                  | Some { bound = Some bound; _ } ->
                      let k = min (List.length va) (List.length vb) in
                      let pairs =
                        List.combine
                          (List.filteri (fun i _ -> i < k) va)
                          (List.filteri (fun i _ -> i < k) vb)
                      in
                      let wins =
                        List.length (List.filter (fun (x, y) -> sign *. (y -. x) < 0.0) pairs)
                      in
                      let spread = if ma = 0.0 then 0.0 else (q3 -. q1) /. Float.abs ma in
                      (* Every run of B better than every run of A. *)
                      let all_better =
                        List.for_all (fun y -> List.for_all (fun x -> sign *. (y -. x) < 0.0) va) vb
                      in
                      let v =
                        if worse > bound +. 1e-12 && not (spread > bound) then begin
                          incr regressions;
                          "REGRESSION"
                        end
                        else if spread > bound && not all_better then "unresolved"
                        else if
                          pairs <> []
                          && fi wins >= 0.9 *. fi (List.length pairs)
                          && Float.abs (mb -. ma) > q3 -. q1
                        then "gain"
                        else "no change"
                      in
                      (v, Printf.sprintf "%.0f%%" (bound *. 100.0))
                  | _ -> ("-", "-")
                in
                let change = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma *. 100.0 in
                Printf.printf "%-13s %-30s %12.6g %12.6g %+7.1f%% %6s  %s\n"
                  (fst (key wa)) m ma mb change bound verdict
              end)
            (metric_names wa))
    ea;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s) or failed workload(s)\n" !regressions;
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* --check BENCHMARK.json: the file matches the metric table, every
   declared metric is present with a value on each workload it applies
   to, no operation failed, every run was healthy, and the traced
   run's health checks hold. *)

let check_schema path entries =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Obs.Json.of_file path with
  | Error e -> fail "%s: %s" path e
  | Ok j ->
      let listed key =
        match member key j with
        | Obs.Json.List l ->
            List.map
              (fun m ->
                ( (match member "name" m with Obs.Json.String s -> s | _ -> ""),
                  (match member "unit" m with Obs.Json.String s -> s | _ -> ""),
                  (match member "better" m with Obs.Json.String s -> s | _ -> ""),
                  Obs.Json.to_float_opt (member "bound" m) ))
              l
        | _ -> []
      in
      let expect key specs =
        let declared = listed key in
        List.iter
          (fun (m : Spec.t) ->
            if not (List.exists (fun (n, _, _, _) -> n = m.name) declared) then
              fail "%s: %s missing" key m.name)
          specs;
        List.iter
          (fun (n, u, b, bound) ->
            match List.find_opt (fun (m : Spec.t) -> m.name = n) specs with
            | None -> fail "%s: %s is not measured" key n
            | Some m ->
                if u <> m.unit_ then fail "%s: unit %s, measured in %s" n u m.unit_;
                if b <> Spec.better_string m.better then fail "%s: better %s" n b;
                if key = "end_to_end" && bound <> m.bound then fail "%s: bound differs" n)
          declared
      in
      expect "end_to_end" Spec.gated;
      expect "per_layer" Spec.per_layer);
  List.iter
    (fun w ->
      let name = match member "workload" w with Obs.Json.String s -> s | _ -> "?" in
      let traced = member "traced" w = Obs.Json.Bool true in
      let declared =
        List.filter
          (fun (m : Spec.t) -> Spec.applies m name && (m.bound = None) = traced)
          Spec.all
      in
      List.iter
        (fun (m : Spec.t) ->
          match values w m.name with
          | [] -> fail "%s: %s not reported" name m.name
          | vs ->
              if List.exists Float.is_nan vs then fail "%s: %s is not a number" name m.name)
        declared;
      let worst m = List.fold_left Float.max 0.0 (values w m) in
      if worst "error_rate" > 0.0 then fail "%s: error_rate %g" name (worst "error_rate");
      let unhealthy = List.fold_left (fun n r -> n + int_of "unhealthy" r) 0 (runs_of w) in
      if unhealthy > 0 then fail "%s: %d run(s) failed a health check" name unhealthy;
      if traced then begin
        if worst "obs.trace_dropped_events" > 0.0 then fail "%s: trace events dropped" name;
        if worst "obs.unattributed_pct" > 2.0 then
          fail "%s: unattributed %.2f%% > 2%%" name (worst "obs.unattributed_pct")
      end)
    entries;
  match !problems with
  | [] -> Printf.printf "\nschema check: ok (%d workload entries)\n" (List.length entries)
  | l ->
      List.iter (fun s -> prerr_endline ("schema check: " ^ s)) (List.rev l);
      exit 1

(* ---------------------------------------------------------------- *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: main.exe [--seed S] [--workload NAME]... [--trace [0|1]] [--smoke]\n\
    \                [--repeat K] [--out PROFILE.json] [--check BENCHMARK.json]\n\
    \       main.exe --compare A.json B.json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let seed = ref 1 and smoke = ref false in
  let workloads = ref [] and modes = ref [ false ] and repeat = ref 1 in
  let out = ref None and child_name = ref None and chrome = ref None in
  let check = ref None and compare = ref None in
  let int_arg s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--seed" :: s :: rest -> seed := int_arg s; parse rest
    | "--seconds" :: _ :: rest -> parse rest
    | "--workload" :: w :: rest ->
        if not (List.mem w Spec.workloads) then begin
          prerr_endline ("unknown workload " ^ w ^ "; one of " ^ String.concat ", " Spec.workloads);
          exit 2
        end;
        workloads := !workloads @ [ w ];
        parse rest
    | "--trace" :: "0" :: rest -> modes := [ false ]; parse rest
    | "--trace" :: "1" :: rest -> modes := [ true ]; parse rest
    | "--trace" :: rest -> modes := [ false; true ]; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--repeat" :: k :: rest -> repeat := max 1 (int_arg k); parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--check" :: f :: rest -> check := Some f; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | "--child" :: w :: rest -> child_name := Some w; parse rest
    | "--chrome" :: f :: rest -> chrome := Some f; parse rest
    | _ -> usage ()
  in
  parse args;
  match (!compare, !child_name) with
  | Some (a, b), _ -> compare_files a b
  | None, Some name ->
      let trace = !modes = [ true ] in
      child ~name
        ~ctx:{ Workloads.seed = !seed; smoke = !smoke; trace }
        ~chrome:!chrome
  | None, None ->
      let o =
        {
          seed = !seed;
          workloads = (if !workloads = [] then Spec.workloads else !workloads);
          modes = !modes;
          smoke = !smoke;
          repeat = !repeat;
          out = !out;
        }
      in
      let entries = run_all o in
      Option.iter (fun path -> check_schema path entries) !check;
      print_endline (to_line (result_line o entries))
