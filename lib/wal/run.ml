module St = Indexing.Stream_table
module Posting = Cbitmap.Posting
module Bitset = Cbitmap.Bitset

type t = {
  table : St.t;
  streams : Posting.t array; (* kept: the table's repair source *)
  sigma : int;
}

let sigma t = t.sigma
let table t = t.table

let build ?layout device ~sigma ~chars ~tombstones ~written =
  if Array.length chars <> sigma then invalid_arg "Run.build: chars length";
  let streams = Array.make (sigma + 2) Posting.empty in
  Array.blit chars 0 streams 0 sigma;
  streams.(sigma) <- tombstones;
  streams.(sigma + 1) <- written;
  { table = St.build ?layout device streams; streams; sigma }

(* Stream [i] of [r] through [arena]: the directory entry, then the
   payload, as a fresh posting. *)
let read_stream arena r i =
  St.Arena.union arena [ St.Arena.read_stream arena r.table i ]

let stream r i = read_stream (St.Arena.create ()) r i
let written t = stream t (t.sigma + 1)
let tombstones t = stream t t.sigma
let posting t ch = stream t ch

(* [read_stream], refusing a position at or past the string's length
   [n], which only corruption can produce. *)
let read_bounded arena r i ~n =
  let p = read_stream arena r i in
  let k = Posting.cardinal p in
  if k > 0 && Posting.get p (k - 1) >= n then
    Secidx_error.corrupt "Run.merge: position %d past length %d"
      (Posting.get p (k - 1)) n;
  p

(* Newest-first shadowed union: a run's opinions survive the merge
   only at positions no newer run wrote, which the shadow bitmap holds.
   Each run's streams are read in stream order through the merge's
   arena, cleared per run.  The surviving parts of one stream are
   disjoint; the merged written set is the plain union, so the output
   shadows exactly what its inputs shadowed. *)
let merge ?layout device ~n runs =
  match runs with
  | [] -> invalid_arg "Run.merge: empty"
  | first :: _ ->
      let sigma = first.sigma in
      if List.exists (fun r -> r.sigma <> sigma) runs then
        invalid_arg "Run.merge: mismatched sigma";
      let parts = Array.make (sigma + 2) [] in
      let shadow = Bitset.create () in
      Bitset.clear shadow ~n;
      let arena = St.Arena.create () in
      List.iter
        (fun r ->
          St.Arena.clear arena;
          for i = 0 to sigma do
            let p =
              Posting.filter
                (fun x -> not (Bitset.mem shadow x))
                (read_bounded arena r i ~n)
            in
            parts.(i) <- p :: parts.(i)
          done;
          let w = read_bounded arena r (sigma + 1) ~n in
          Posting.iter (Bitset.add shadow) w;
          parts.(sigma + 1) <- w :: parts.(sigma + 1))
        runs;
      let streams = Array.map Posting.union_many parts in
      { table = St.build ?layout device streams; streams; sigma }

let frames t = St.frames t.table ~source:(fun () -> t.streams)
let size_bits t = St.size_bits t.table
let payload_bits t = St.payload_bits t.table
