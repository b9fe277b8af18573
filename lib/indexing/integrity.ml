(* Uniform detect-or-repair hooks an index instance exposes (PR 3).

   [scrub] is a counted verification pass over every protected extent,
   returning how many are corrupt; [repair] restores all of them from
   their frames' rebuild closures or raises [Secidx_error.Corrupt]
   when that is impossible.  Both are
   closures so a structure that relocates its extents on rebuild stays
   covered — the hooks always see the current layout. *)

type t = { scrub : unit -> int; repair : unit -> unit }

let of_frames frames =
  {
    scrub = (fun () -> List.length (Iosim.Frame.scrub (frames ())));
    repair = (fun () -> Iosim.Frame.repair_all (Iosim.Frame.scrub (frames ())));
  }

let current hooks =
  {
    scrub = (fun () -> (hooks ()).scrub ());
    repair = (fun () -> (hooks ()).repair ());
  }

let combine parts =
  {
    scrub = (fun () -> List.fold_left (fun acc p -> acc + p.scrub ()) 0 parts);
    repair = (fun () -> List.iter (fun p -> p.repair ()) parts);
  }
