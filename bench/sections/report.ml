(* Re-validates every committed BENCH_PR*.json structurally
   and prints the cross-PR headline trajectory (Obs.Report). *)

open Common

let run () =
  let files =
    List.filter Sys.file_exists
      (List.init 10 (fun i -> Printf.sprintf "BENCH_PR%d.json" (i + 1)))
  in
  let r = Obs.Report.run files in
  print_string (Obs.Report.render_table r);
  if not (Obs.Report.pass r) then begin
    fmt "report gate FAILED\n";
    exit 1
  end
