module St = Indexing.Stream_table
module Posting = Cbitmap.Posting
module Bitset = Cbitmap.Bitset

type t = { table : St.t; sigma : int }

let sigma t = t.sigma
let table t = t.table

let build ?layout device ~sigma ~chars ~tombstones ~written =
  if Array.length chars <> sigma then invalid_arg "Run.build: chars length";
  let streams = Array.make (sigma + 2) Posting.empty in
  Array.blit chars 0 streams 0 sigma;
  streams.(sigma) <- tombstones;
  streams.(sigma + 1) <- written;
  { table = St.build ?layout device streams; sigma }

let written t = St.read_one t.table (t.sigma + 1)
let tombstones t = St.read_one t.table t.sigma
let posting t ch = St.read_one t.table ch

(* Stream [i] of [r] through its reader [rd], as [St.read_one] reads
   it: the directory entry, then the payload, into a fresh posting. *)
let read_stream r rd i ~n =
  let e = Obs.Metrics.phase "directory" (fun () -> St.extent r.table i) in
  Obs.Metrics.phase "payload" (fun () ->
      let count = e.St.count in
      let a = Array.make count 0 in
      St.read_into rd e a ~at:0;
      if count > 0 && a.(count - 1) >= n then
        Secidx_error.corrupt "Run.merge: position %d past length %d"
          a.(count - 1) n;
      Posting.adopt a)

(* Newest-first shadowed union: a run's opinions survive the merge
   only at positions no newer run wrote, which the shadow bitmap holds.
   Each run's streams are read in stream order through one reader.  The
   surviving parts of one stream are disjoint; the merged written set
   is the plain union, so the output shadows exactly what its inputs
   shadowed. *)
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
      List.iter
        (fun r ->
          let rd = St.reader r.table in
          for i = 0 to sigma do
            let p =
              Posting.filter
                (fun x -> not (Bitset.mem shadow x))
                (read_stream r rd i ~n)
            in
            parts.(i) <- p :: parts.(i)
          done;
          let w = read_stream r rd (sigma + 1) ~n in
          Posting.iter (Bitset.add shadow) w;
          parts.(sigma + 1) <- w :: parts.(sigma + 1))
        runs;
      { table = St.build ?layout device (Array.map Posting.union_many parts); sigma }

let frames t = St.frames t.table
let size_bits t = St.size_bits t.table
let payload_bits t = St.payload_bits t.table
