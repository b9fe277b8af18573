type t = {
  device : Iosim.Device.t;
  x : int array; (* the string: the levels' repair source *)
  n : int;
  sigma : int;
  sigma2 : int; (* alphabet size rounded up to a power of two *)
  schedule : [ `All | `Doubling ];
  levels : Indexing.Stream_table.t option array;
  (* levels.(j), when materialized, holds the 2^j bitmaps of the nodes
     at depth j.  The `All schedule (Theorem 1) materializes every
     level; `Doubling implements footnote 3: depths 1, 2, 4, 8, ...
     plus the leaves, reducing space to O(n lg sigma + sigma lg^2 n)
     at the price of merging runs of descendants for skipped levels. *)
  a : Char_counts.t; (* the prefix counts A *)
  complement : bool;
  arena : Indexing.Stream_table.Arena.t; (* each query's decoded extents *)
}

let a_magic = 0x5DA1

let materialized_depths schedule nlevels =
  match schedule with
  | `All -> List.init nlevels Fun.id
  | `Doubling ->
      let rec go d acc = if d >= nlevels - 1 then acc else go (2 * d) (d :: acc) in
      List.sort_uniq compare ((nlevels - 1) :: 0 :: go 1 [])

(* The postings of the [2^j] nodes at depth [j] of a tree of
   [nlevels] levels, bucketed from [x]: node [b] holds the positions
   whose character lies in [b·w .. (b+1)·w - 1], [w = 2^(nlevels-1-j)].
   The build stores each level from it, and a repair re-derives one. *)
let depth_postings ~nlevels x j =
  let shift = nlevels - 1 - j in
  Indexing.Common.positions_by_char ~sigma:(1 lsl j)
    (Array.map (fun c -> c lsr shift) x)

let build ?(complement = true) ?(schedule = `All) device ~sigma x =
  let n = Array.length x in
  let rec pow2 v = if v >= sigma then v else pow2 (2 * v) in
  let sigma2 = pow2 1 in
  let nlevels = Bitio.Codes.floor_log2 sigma2 + 1 in
  let mat = materialized_depths schedule nlevels in
  (* Store levels bottom-up: level (nlevels-1) = single characters. *)
  let levels = Array.make nlevels None in
  for j = nlevels - 1 downto 0 do
    if List.mem j mat then
      levels.(j) <-
        Some (Indexing.Stream_table.build device (depth_postings ~nlevels x j))
  done;
  (* Prefix cardinalities A.(i) = #{positions with character < i}. *)
  let a =
    Char_counts.store device ~magic:a_magic
      ~width:(Indexing.Common.bits_for (max 2 (n + 1)))
      (Indexing.Common.prefix_counts ~sigma x)
  in
  { device; x; n; sigma; sigma2; schedule; levels; a; complement;
    arena = Indexing.Stream_table.Arena.create () }

let levels t = Array.length t.levels

let read_a t i = Char_counts.get t.a i

(* Dyadic canonical cover of [lo..hi] (inclusive) over sigma2 leaves:
   (level j, node index) pairs, coarse pieces first possible. *)
let cover t ~lo ~hi =
  let nlevels = Array.length t.levels in
  let rec go lo acc =
    if lo > hi then List.rev acc
    else begin
      (* Widest aligned dyadic block starting at lo that fits. *)
      let best = ref (nlevels - 1) in
      (* width at level j is sigma2 / 2^j = 2^(nlevels-1-j) *)
      for j = nlevels - 1 downto 0 do
        let width = 1 lsl (nlevels - 1 - j) in
        if lo mod width = 0 && lo + width - 1 <= hi then best := j
      done;
      let j = !best in
      let width = 1 lsl (nlevels - 1 - j) in
      go (lo + width) ((j, lo / width) :: acc)
    end
  in
  go lo []

(* The materialized (level, lo..hi) run answering one cover piece:
   either the node's own bitmap, or the contiguous run of its
   descendants at the next materialized level below (footnote 3). *)
let piece_run t (j, b) =
  match t.levels.(j) with
  | Some _ -> (j, b, b)
  | None ->
      let rec down m =
        if m >= Array.length t.levels then
          invalid_arg "Alphabet_tree: leaf level not materialized"
        else
          match t.levels.(m) with
          | Some _ ->
              let span = 1 lsl (m - j) in
              (m, b * span, ((b + 1) * span) - 1)
          | None -> down (m + 1)
      in
      down (j + 1)

let table t m = Option.get t.levels.(m)

(* The arena slices of [lo..hi]: every directory entry first, then
   each extent. *)
let range_slices t ~lo ~hi =
  if lo > hi then []
  else begin
    let extents =
      Obs.Metrics.(in_phase directory) (fun () ->
          List.concat_map
            (fun (m, first, last) ->
              Indexing.Stream_table.extents (table t m) ~lo:first ~hi:last)
            (List.map (piece_run t) (cover t ~lo ~hi)))
    in
    List.map (Indexing.Stream_table.Arena.read t.arena) extents
  end

(* The A-array probe sizes the answer before touching any bitmap —
   the rank part of the paper's rank/select phase.  [slices] reads the
   arena slices of a character range; a complement is one union over
   the slices left and right of the range. *)
let answer t ~lo ~hi slices =
  let z =
    Obs.Metrics.(in_phase rank_select) (fun () ->
        read_a t (hi + 1) - read_a t lo)
  in
  let union ranges =
    Indexing.Stream_table.Arena.union t.arena
      (List.concat_map (fun (lo, hi) -> slices ~lo ~hi) ranges)
  in
  if z = 0 then Indexing.Answer.Direct Cbitmap.Posting.empty
  else if t.complement && 2 * z > t.n then
    Indexing.Answer.Complement (union [ (0, lo - 1); (hi + 1, t.sigma2 - 1) ])
  else Indexing.Answer.Direct (union [ (lo, hi) ])

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      Indexing.Stream_table.Arena.clear t.arena;
      answer t ~lo ~hi (range_slices t)

(* ---- batched execution (PR 5): [answer] per unique query,
   with node bitmaps decoded at most once per batch: each stream's
   arena slice is cached by (level, index), and the uncached sub-runs
   of each piece are prefetched. *)

let cached_slices t cache ~lo ~hi =
  if lo > hi then []
  else
    List.concat_map
      (fun (m, first, last) ->
        Indexing.Stream_table.prefetch_uncached (table t m)
          ~cached:(fun i -> Indexing.Batch.Cache.mem cache (m, i))
          ~lo:first ~hi:last;
        List.init (last - first + 1) (fun k ->
            Indexing.Batch.Cache.get cache (m, first + k)))
      (List.map (piece_run t) (cover t ~lo ~hi))

let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.sigma ranges in
  Indexing.Stream_table.Arena.clear t.arena;
  let cache =
    Indexing.Batch.Cache.create
      ~decode:(fun (m, i) ->
        Indexing.Stream_table.Arena.read_stream t.arena (table t m) i)
      ()
  in
  Indexing.Batch.fan_out plan
    (Array.map
       (fun (lo, hi) -> answer t ~lo ~hi (cached_slices t cache))
       plan.Indexing.Batch.uniq)

let tables t = List.filter_map Fun.id (Array.to_list t.levels)

let integrity t =
  let nlevels = Array.length t.levels in
  let level j tab =
    Indexing.Stream_table.integrity tab ~source:(fun () ->
        depth_postings ~nlevels t.x j)
  in
  Indexing.Integrity.combine
    (Indexing.Integrity.of_frames (fun () ->
         [ Char_counts.frame t.a ~live:(fun () ->
               Indexing.Common.prefix_counts ~sigma:t.sigma t.x) ])
    :: List.filter_map Fun.id
         (Array.to_list (Array.mapi (fun j -> Option.map (level j)) t.levels)))

let size_bits t =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some tab -> acc + Indexing.Stream_table.size_bits tab)
    (Char_counts.region t.a).Iosim.Device.len t.levels

let instance_of t =
  {
    Indexing.Instance.name =
      (match t.schedule with
      | `Doubling -> "secidx-complete-tree-fn3"
      | `All -> "secidx-complete-tree");
    device = t.device;
    n = t.n;
    sigma = t.sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity = Some (integrity t);
  }

let instance ?complement ?schedule device ~sigma x =
  instance_of (build ?complement ?schedule device ~sigma x)
