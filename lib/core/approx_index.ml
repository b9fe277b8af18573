module Split = Hashing.Universal.Split
module Posting = Cbitmap.Posting
module Bitset = Cbitmap.Bitset
module St = Indexing.Stream_table

type t = {
  base : Static_index.t;
  k : int;
  fams : Split.t array; (* fams.(j-1) = h_j *)
  (* hashed_levels.(l), when internal level l is stored: its hashed
     bitmaps under h_j at index j-1 *)
  hashed_levels : Indexing.Stream_table.t array option array;
  hashed_leaves : Indexing.Stream_table.t array; (* per j *)
  seen : Bitset.t; (* [probe] scratch: the hashed values read *)
  arena : St.Arena.t; (* the hashed extents a query or probe decodes *)
}

type answer =
  | Exact of Indexing.Answer.t
  | Hashed of {
      j : int;
      fam : Split.t;
      hashed : Cbitmap.Posting.t;
      z : int;
    }

(* A stored posting's image under a hash function, sorted and
   deduplicated with no comparison sort.  The values lie in
   [\[0, 2^(2^j))] (at most 2^16 of them below n = 2^32) and most stored
   nodes hold a few positions, so each value is set in a two-level
   bitmap — [words], 32 values a word, and [summary], one bit per word
   of [words] — where collisions collapse; the image is read back by
   scanning [summary] and clearing every word it leads to, which leaves
   both levels zero for the next posting.  A posting of [m] positions
   costs O(m + 2^(2^j) / 1024). *)
type image = { mutable words : int array; mutable summary : int array }

let hash_image img fam p =
  let nw = ((1 lsl Split.out_bits fam) + 31) lsr 5 in
  let ns = (nw + 31) lsr 5 in
  if Array.length img.words < nw then img.words <- Array.make nw 0;
  if Array.length img.summary < ns then img.summary <- Array.make ns 0;
  let words = img.words and summary = img.summary in
  let count = ref 0 in
  Posting.iter
    (fun v ->
      let h = Split.hash fam v in
      let w = h lsr 5 in
      let old = words.(w) in
      let now = old lor (1 lsl (h land 31)) in
      if now <> old then begin
        if old = 0 then
          summary.(w lsr 5) <- summary.(w lsr 5) lor (1 lsl (w land 31));
        words.(w) <- now;
        incr count
      end)
    p;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for s = 0 to ns - 1 do
    let sw = ref summary.(s) in
    summary.(s) <- 0;
    while !sw <> 0 do
      let w = (s lsl 5) + Bitio.Bitops.ctz !sw in
      let b = ref words.(w) in
      words.(w) <- 0;
      while !b <> 0 do
        out.(!k) <- (w lsl 5) + Bitio.Bitops.ctz !b;
        incr k;
        b := !b land (!b - 1)
      done;
      sw := !sw land (!sw - 1)
    done
  done;
  Posting.adopt out

let build ?(seed = 0x5ec1d) ?c ?code device ~sigma x =
  let base = Static_index.build ?c ?code device ~sigma x in
  let tree = Static_index.tree base in
  let n = tree.Wbb.n in
  let k = max 1 (Bitio.Codes.floor_log2 (max 2 (Bitio.Codes.floor_log2 (max 2 n)))) in
  let rng = Hashing.Universal.Rng.create ~seed in
  let fams = Array.init k (fun i -> Split.create rng ~j:(i + 1)) in
  (* The base index's stored nodes, derived once and hashed under
     every [h_j]: one table per hash level. *)
  let img = { words = [||]; summary = [||] } in
  let _, hashed_levels, hashed_leaves =
    Wbb.store_levels tree x
      ~levels:(Static_index.materialized_levels base)
      (fun postings ->
        Array.map
          (fun fam ->
            Indexing.Stream_table.build ?code device
              (Array.map (hash_image img fam) postings))
          fams)
  in
  {
    base;
    k;
    fams;
    hashed_levels;
    hashed_leaves;
    seen = Bitset.create ();
    arena = St.Arena.create ();
  }

let k t = t.k
let base t = t.base

let choose_j t ~epsilon ~z =
  if epsilon <= 0.0 then t.k + 1
  else begin
    let rec go j =
      if j > t.k then j
      else if
        (* 2^(2^j) > z / epsilon *)
        float_of_int (1 lsl (1 lsl j)) > float_of_int z /. epsilon
      then j
      else go (j + 1)
    in
    go 1
  end

let level t ~epsilon ~z = choose_j t ~epsilon ~z

(* What a query at [epsilon] reads: the A array; then, on the hashed
   path, the descent and every run's directory entries in one
   "directory" span, each run read from its level-[j] hashed table.
   Nothing is decoded yet. *)
type read =
  | Empty
  | Fallback  (* j > k: the exact query answers *)
  | Runs of { j : int; z : int; extents : St.extent list }

let read_directory t ~epsilon ~lo ~hi =
  let s, e = Static_index.entry_bounds t.base ~lo ~hi in
  let z = e - s in
  let j = choose_j t ~epsilon ~z in
  if z = 0 then Empty
  else if j > t.k then Fallback
  else
    let extents =
      Obs.Metrics.(in_phase directory) (fun () ->
          List.concat_map
            (fun { Static_index.storage; first; last } ->
              let tab =
                match storage with
                | `Leaf -> t.hashed_leaves.(j - 1)
                | `Level l -> (Option.get t.hashed_levels.(l)).(j - 1)
              in
              St.extents tab ~lo:first ~hi:last)
            (Static_index.plan_charged t.base ~s ~e))
    in
    Runs { j; z; extents }

(* The hashed extents decoded into the arena, in order. *)
let read_hashed t extents =
  St.Arena.clear t.arena;
  List.map (St.Arena.read t.arena) extents

let query t ~epsilon ~lo ~hi =
  match read_directory t ~epsilon ~lo ~hi with
  | Empty -> Exact (Indexing.Answer.Direct Posting.empty)
  | Fallback -> Exact (Static_index.query t.base ~lo ~hi)
  | Runs { j; z; extents } ->
      let hashed = St.Arena.union t.arena (read_hashed t extents) in
      Hashed { j; fam = t.fams.(j - 1); hashed; z }

(* The same reads as [query], in the same order: the extents decode
   into the arena, and every decoded hash lands in [seen], cleared
   first so a probe that a fault cut short leaves nothing behind.  A
   decoded value past the universe can only come from damage and can
   match no candidate. *)
let probe t ~epsilon ~lo ~hi cand =
  match read_directory t ~epsilon ~lo ~hi with
  | Empty -> Posting.empty
  | Fallback ->
      let a = Static_index.query t.base ~lo ~hi in
      Posting.filter (Indexing.Answer.mem a) cand
  | Runs { j; extents; _ } ->
      let fam = t.fams.(j - 1) in
      let universe = 1 lsl Split.out_bits fam in
      Bitset.clear t.seen ~n:universe;
      let slices = read_hashed t extents in
      let words = St.Arena.buffer t.arena in
      List.iter
        (fun (off, len) ->
          for i = off to off + len - 1 do
            let v = Array.unsafe_get words i in
            if v < universe then Bitset.add t.seen v
          done)
        slices;
      Posting.filter (fun row -> Bitset.mem t.seen (Split.hash fam row)) cand

let mem answer i =
  match answer with
  | Exact a -> Indexing.Answer.mem a i
  | Hashed { fam; hashed; _ } -> Cbitmap.Posting.mem hashed (Split.hash fam i)

let candidates answer ~n =
  match answer with
  | Exact a -> Indexing.Answer.to_posting ~n a
  | Hashed { fam; hashed; _ } ->
      let set = Bitset.create () in
      Bitset.clear set ~n;
      Posting.iter (fun s -> Split.iter_preimage fam ~n s (Bitset.add set)) hashed;
      Bitset.to_posting set

let hashed_bits t =
  let tables acc =
    Array.fold_left
      (fun acc tab -> acc + Indexing.Stream_table.size_bits tab)
      acc
  in
  Array.fold_left
    (fun acc -> function None -> acc | Some per_j -> tables acc per_j)
    (tables 0 t.hashed_leaves) t.hashed_levels

let size_bits t = Static_index.size_bits t.base + hashed_bits t
