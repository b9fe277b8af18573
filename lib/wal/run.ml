module St = Indexing.Stream_table
module Posting = Cbitmap.Posting

type t = { table : St.t; sigma : int }

let sigma t = t.sigma

let build ?layout device ~sigma ~chars ~tombstones ~written =
  if Array.length chars <> sigma then invalid_arg "Run.build: chars length";
  let streams = Array.make (sigma + 2) Posting.empty in
  Array.blit chars 0 streams 0 sigma;
  streams.(sigma) <- tombstones;
  streams.(sigma + 1) <- written;
  { table = St.build ?layout device streams; sigma }

let matches t ~lo ~hi = St.read_union t.table ~lo ~hi
let written t = St.read_one t.table (t.sigma + 1)
let tombstones t = St.read_one t.table t.sigma
let posting t ch = St.read_one t.table ch

let run_tombstones = tombstones
let run_written = written

(* Newest-first shadowed union: a run's opinions survive the merge
   only at positions no newer run wrote.  The merged written set is
   the plain union, so the output shadows exactly what its inputs
   shadowed. *)
let merge ?layout device runs =
  match runs with
  | [] -> invalid_arg "Run.merge: empty"
  | first :: _ ->
      let sigma = first.sigma in
      if List.exists (fun r -> r.sigma <> sigma) runs then
        invalid_arg "Run.merge: mismatched sigma";
      let chars = Array.make sigma Posting.empty in
      let dead = ref Posting.empty in
      let shadow = ref Posting.empty in
      let seen = ref Posting.empty in
      List.iter
        (fun r ->
          for ch = 0 to sigma - 1 do
            chars.(ch) <-
              Posting.union chars.(ch) (Posting.diff (posting r ch) !shadow)
          done;
          dead := Posting.union !dead (Posting.diff (run_tombstones r) !shadow);
          let w = run_written r in
          shadow := Posting.union !shadow w;
          seen := Posting.union !seen w)
        runs;
      build ?layout device ~sigma ~chars ~tombstones:!dead ~written:!seen

let frames t = St.frames t.table
let size_bits t = St.size_bits t.table
let payload_bits t = St.payload_bits t.table
