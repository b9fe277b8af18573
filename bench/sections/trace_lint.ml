(* Balanced Begin/End per domain track in
   exported Chrome traces. *)

open Common

let run files =
  let failed =
    List.fold_left
      (fun acc f ->
        let l = Obs.Report.lint_trace f in
        let ok = Obs.Report.lint_pass l in
        fmt "%s: %d events, %d begins, %d ends, %d domains, %d unmatched: %s\n"
          l.Obs.Report.lint_path l.Obs.Report.events l.Obs.Report.begins
          l.Obs.Report.ends l.Obs.Report.domains l.Obs.Report.lint_unmatched
          (if ok then "ok" else "FAIL");
        List.iter (fun m -> fmt "  %s\n" m) l.Obs.Report.lint_failures;
        if ok then acc else acc + 1)
      0 files
  in
  if files = [] then fmt "no trace files given\n";
  if failed > 0 then exit 1
