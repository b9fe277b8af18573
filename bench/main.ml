(* Benchmark harness: the paper experiments E1–E13 and the gated
   sections that write BENCH_PR<k>.json.  Each section lives in its own
   module of bench/sections; this file is the table of their names.

     dune exec bench/main.exe                       # every experiment
     dune exec bench/main.exe -- e3 e5              # a subset
     dune exec bench/main.exe -- <flag> [--smoke]   # a section, CI-sized

   Named experiments run first, in the order given, then the chosen
   sections in table order.  An unknown argument is a usage error
   (exit 2). *)

open Sections

let experiments =
  Experiments.
    [
      ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
      ("e12", e12); ("e13", e13);
    ]

(* A section runs at full or smoke size, or over the files named on
   the command line. *)
type run = Sized of (smoke:bool -> unit) | Files of (string list -> unit)

(* (flag, title of the section's console header, section) *)
let sections =
  [
    ("--wallclock", "wall-clock microbenchmarks", Sized Wallclock.run);
    ("--faults", "fault-injection campaign", Sized Faults.run);
    ( "--trace",
      "query tracing, space ledgers, theorem envelopes",
      Sized Tracing.run );
    ("--batch", "batched query execution", Sized Batching.run);
    ("--serve", "sharded parallel serving", Sized Serving.run);
    ("--containers", "hybrid container payloads", Sized Containers.run);
    ("--wal", "crash-safe write path", Sized Write_path.run);
    ("--metrics", "production metrics plane", Sized Metrics_plane.run);
    ("--planner", "cost-based planner", Sized Planning.run);
    ( "--report",
      "cross-PR regression report",
      Sized (fun ~smoke:_ -> Report.run ()) );
    ("--trace-lint", "chrome trace lint", Files Trace_lint.run);
  ]

let usage_error arg =
  Printf.eprintf "bench: unknown argument %s\nexperiments: %s\nflags: %s\n"
    arg
    (String.concat " " (List.map fst experiments))
    (String.concat " " ("--smoke" :: List.map (fun (f, _, _) -> f) sections));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let flags, names =
    List.partition
      (String.starts_with ~prefix:"--")
      (List.filter (fun a -> a <> "--" && a <> "--smoke") args)
  in
  List.iter
    (fun f ->
      if not (List.exists (fun (f', _, _) -> f' = f) sections) then
        usage_error f)
    flags;
  let chosen = List.filter (fun (f, _, _) -> List.mem f flags) sections in
  (* A section that takes files claims the positional arguments. *)
  let takes_files =
    List.exists (function _, _, Files _ -> true | _ -> false) chosen
  in
  let to_run =
    if takes_files then []
    else if names = [] && flags = [] then List.map snd experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some e -> e
          | None -> usage_error name)
        names
  in
  List.iter (fun e -> e ()) to_run;
  List.iter
    (fun (flag, title, run) ->
      Common.header (Printf.sprintf "%s (%s)" title flag);
      match run with Sized run -> run ~smoke | Files run -> run names)
    chosen;
  print_string "\nbench: done\n"
