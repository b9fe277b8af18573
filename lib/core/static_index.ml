type schedule = [ `Doubling | `All | `Leaves_only ]

type t = {
  device : Iosim.Device.t;
  x : int array; (* the string: the stored levels' repair source *)
  tree : Wbb.t;
  complement : bool;
  mat : bool array; (* mat.(l) = internal level l+1 materialized *)
  level_tables : Indexing.Stream_table.t option array; (* per level, internal *)
  leaf_table : Indexing.Stream_table.t;
  a : Char_counts.t; (* the prefix counts A *)
  pos_bits : int;
  meta_bits : int;
  meta_slot : int array; (* node id -> absolute bit offset of its slot *)
  meta_total_bits : int;
  meta_frames : Iosim.Frame.t list;
  arena : Indexing.Stream_table.Arena.t; (* each query's decoded extents *)
}

let a_magic = 0x5DA2
let meta_magic = 0x5DA3

type run = { storage : [ `Leaf | `Level of int ]; first : int; last : int }

let schedule_levels schedule height =
  match schedule with
  | `Doubling -> Wbb.doubling_levels height
  | `All -> List.init height (fun i -> i + 1)
  | `Leaves_only -> []

(* Pack node metadata into blocks subtree-wise: starting from a
   subtree root, take nodes in breadth-first order until the block is
   full; the children left over become roots of new blocks.  A
   root-to-leaf path then touches O(depth / lg_c b) blocks. *)
let pack_metadata device (tree : Wbb.t) ~meta_bits ~pos_bits ~char_bits =
  let bb = Iosim.Device.block_bits device in
  let cap = max 1 (bb / meta_bits) in
  let nnodes = Array.length tree.Wbb.nodes in
  let meta_slot = Array.make nnodes 0 in
  let total = ref 0 in
  let written = ref [] in
  let roots = Queue.create () in
  Queue.add tree.Wbb.root roots;
  while not (Queue.is_empty roots) do
    (* Open a block and fill it: breadth-first from the next subtree
       root, then (if space remains) from further pending roots, so
       small subtrees near the leaves share blocks instead of each
       occupying one. *)
    let region =
      Iosim.Device.with_component device "directory" (fun () ->
          Iosim.Device.alloc ~align_block:true device bb)
    in
    total := !total + bb;
    let filled = ref 0 in
    let buf = Bitio.Bitbuf.create ~capacity:bb () in
    while !filled < cap && not (Queue.is_empty roots) do
      let members = Queue.create () in
      Queue.add (Queue.pop roots) members;
      while not (Queue.is_empty members) do
        let v = Queue.pop members in
        if !filled >= cap then Queue.add v roots
        else begin
          meta_slot.(v.Wbb.id) <-
            region.Iosim.Device.off + (!filled * meta_bits);
          incr filled;
          Bitio.Bitbuf.write_bits buf ~width:pos_bits (Wbb.weight v);
          Bitio.Bitbuf.write_bits buf ~width:char_bits v.Wbb.clo;
          Bitio.Bitbuf.write_bits buf ~width:char_bits v.Wbb.chi;
          Bitio.Bitbuf.write_bits buf ~width:8
            (min 255 (Array.length v.Wbb.children));
          Array.iter (fun ch -> Queue.add ch members) v.Wbb.children
        end
      done
    done;
    Iosim.Device.write_buf device
      { region with Iosim.Device.len = Bitio.Bitbuf.length buf }
      buf;
    written := (region, buf) :: !written
  done;
  (* Seal the metadata blocks only after the pack loop so the headers
     do not interleave with the block allocations. *)
  let frames =
    List.rev_map
      (fun ((region : Iosim.Device.region), buf) ->
        Iosim.Frame.seal device ~magic:meta_magic
          ~rebuild:(fun () -> Iosim.Frame.padded ~len:region.Iosim.Device.len buf)
          ~image:(Iosim.Frame.padded ~len:region.Iosim.Device.len buf)
          region)
      !written
  in
  (meta_slot, !total, frames)

let build ?(c = 8) ?(complement = true) ?(schedule = `Doubling)
    ?(code = Cbitmap.Gap_codec.Gamma) device ~sigma x =
  let tree = Wbb.build ~c ~sigma x in
  let mat, level_tables, leaf_table =
    Wbb.store_levels tree x
      ~levels:(schedule_levels schedule tree.Wbb.height)
      (Indexing.Stream_table.build ~code device)
  in
  let n = tree.Wbb.n in
  let pos_bits = Indexing.Common.bits_for (max 2 (n + 1)) in
  let char_bits = Indexing.Common.bits_for (max 2 sigma) in
  let a =
    Char_counts.store device ~magic:a_magic ~width:pos_bits tree.Wbb.char_start
  in
  let meta_bits = pos_bits + (2 * char_bits) + 8 in
  let meta_slot, meta_total_bits, meta_frames =
    pack_metadata device tree ~meta_bits ~pos_bits ~char_bits
  in
  {
    device;
    x;
    tree;
    complement;
    mat;
    level_tables;
    leaf_table;
    a;
    pos_bits;
    meta_bits;
    meta_slot;
    meta_total_bits;
    meta_frames;
    arena = Indexing.Stream_table.Arena.create ();
  }

let tree t = t.tree

let materialized_levels t =
  List.filter (fun l -> t.mat.(l)) (List.init (t.tree.Wbb.height + 1) Fun.id)

let stored t (v : Wbb.node) =
  Wbb.is_leaf v || (v.Wbb.level <= t.tree.Wbb.height && t.mat.(v.Wbb.level))

(* Charge the I/O for inspecting a node's metadata during descent. *)
let touch_node t (v : Wbb.node) =
  let w =
    Iosim.Device.read_bits t.device ~pos:t.meta_slot.(v.Wbb.id)
      ~width:t.pos_bits
  in
  assert (w = Wbb.weight v)

let read_a t i = Char_counts.get t.a i

(* The storage runs a query for entry range [s,e) reads: canonical
   decomposition, frontier expansion to stored nodes, then coalescing
   of adjacent indices per storage level. *)
let plan_nodes t ~s ~e =
  let canon, spine = Wbb.decompose t.tree ~s ~e in
  let needs =
    List.concat_map (fun v -> Wbb.frontier t.tree v ~stored:(stored t)) canon
  in
  (needs, spine, canon)

let runs_of_needs needs =
  (* Coalesce consecutive indices per storage level: adjacent bitmaps
     in one concatenation are read as a single chunk even when reads
     from other storage levels interleave in left-to-right order
     (needs arrive left-to-right, so per-storage indices increase). *)
  let open_runs : ([ `Leaf | `Level of int ], int * int) Hashtbl.t =
    Hashtbl.create 8
  in
  let order = ref [] in
  let closed = ref [] in
  let add storage idx =
    match Hashtbl.find_opt open_runs storage with
    | Some (first, last) when idx = last + 1 ->
        Hashtbl.replace open_runs storage (first, idx)
    | Some (first, last) ->
        closed := { storage; first; last } :: !closed;
        Hashtbl.replace open_runs storage (idx, idx)
    | None ->
        order := storage :: !order;
        Hashtbl.replace open_runs storage (idx, idx)
  in
  List.iter
    (fun (u : Wbb.node) ->
      if Wbb.is_leaf u then add `Leaf u.Wbb.leaf_index
      else add (`Level u.Wbb.level) u.Wbb.level_index)
    needs;
  List.iter
    (fun storage ->
      match Hashtbl.find_opt open_runs storage with
      | Some (first, last) -> closed := { storage; first; last } :: !closed
      | None -> ())
    (List.rev !order);
  List.rev !closed

let plan t ~s ~e =
  let needs, _, _ = plan_nodes t ~s ~e in
  runs_of_needs needs

let entry_bounds t ~lo ~hi =
  if lo < 0 || hi >= t.tree.Wbb.sigma || lo > hi then
    invalid_arg "Static_index.entry_bounds";
  (read_a t lo, read_a t (hi + 1))

let plan_charged t ~s ~e =
  if s >= e then []
  else begin
    let needs, spine, canon = plan_nodes t ~s ~e in
    List.iter (touch_node t) spine;
    List.iter (touch_node t) canon;
    runs_of_needs needs
  end

let table t = function
  | `Leaf -> t.leaf_table
  | `Level l -> Option.get t.level_tables.(l)

(* The arena slices of entry range [s, e) as one query reads them:
   the descent and every run's directory entries in one "directory"
   span before any payload, then each extent in one "payload" span. *)
let read_slices t ~s ~e =
  let es =
    Obs.Metrics.(in_phase directory) (fun () ->
        List.concat_map
          (fun { storage; first; last } ->
            Indexing.Stream_table.extents (table t storage) ~lo:first ~hi:last)
          (plan_charged t ~s ~e))
  in
  Obs.Metrics.(in_phase payload) (fun () ->
      List.map (Indexing.Stream_table.Arena.read t.arena) es)

(* The same slices as a batch reads them: each stored stream's slice
   comes from the batch's cache, keyed by (storage, stream), and each
   run's uncached streams are prefetched first, so their payload
   blocks arrive in one sequential pass. *)
let cached_slices t cache ~s ~e =
  let runs = Obs.Metrics.(in_phase directory) (fun () -> plan_charged t ~s ~e) in
  List.concat_map
    (fun { storage; first; last } ->
      Indexing.Stream_table.prefetch_uncached (table t storage)
        ~cached:(fun i -> Indexing.Batch.Cache.mem cache (storage, i))
        ~lo:first ~hi:last;
      List.init (last - first + 1) (fun k ->
          Indexing.Batch.Cache.get cache (storage, first + k)))
    runs

(* The one range evaluator, for [query] and [query_batch] alike: the
   A-array probe, the complement rule, and one union over the arena
   slices [slices] reads for each entry range.  A complement is one
   union over the left and the right entries: the two sets of
   positions are disjoint.  [timed] runs the union: a batch times it
   as payload work, while a query's reads already ran in payload
   spans. *)
let answer t ~lo ~hi ~timed slices =
  let s, e =
    Obs.Metrics.(in_phase rank_select) (fun () ->
        (read_a t lo, read_a t (hi + 1)))
  in
  let union entry_ranges =
    match
      List.concat_map
        (fun (s, e) -> if s >= e then [] else slices ~s ~e)
        entry_ranges
    with
    | [] -> Cbitmap.Posting.empty
    | l -> timed (fun () -> Indexing.Stream_table.Arena.union t.arena l)
  in
  let n = t.tree.Wbb.n in
  if e = s then Indexing.Answer.Direct Cbitmap.Posting.empty
  else if t.complement && 2 * (e - s) > n then
    Indexing.Answer.Complement (union [ (0, s); (e, n) ])
  else Indexing.Answer.Direct (union [ (s, e) ])

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.tree.Wbb.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      Indexing.Stream_table.Arena.clear t.arena;
      answer t ~lo ~hi ~timed:(fun union -> union ()) (read_slices t)

(* Batched execution (PR 5): [answer] per unique query — identical
   descent and complement decision, so answers match [query]
   constructor for constructor — but every stored stream decodes at
   most once for the whole batch.  Each answer is one union over the
   arena, written fresh, so the arena is reused from batch to batch:
   a warm index allocates little beyond its answers. *)
let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.tree.Wbb.sigma ranges in
  Indexing.Stream_table.Arena.clear t.arena;
  let cache =
    Indexing.Batch.Cache.create
      ~decode:(fun (storage, i) ->
        Indexing.Stream_table.Arena.read_stream t.arena (table t storage) i)
      ()
  in
  Indexing.Batch.fan_out plan
    (Array.map
       (fun (lo, hi) ->
         answer t ~lo ~hi ~timed:Obs.Metrics.(in_phase payload)
           (cached_slices t cache))
       plan.Indexing.Batch.uniq)

(* Each stored level repairs from the string, through the pass that
   built it. *)
let integrity t =
  Indexing.Integrity.combine
    (Indexing.Integrity.of_frames (fun () ->
         Char_counts.frame t.a ~live:(fun () -> t.tree.Wbb.char_start)
         :: t.meta_frames)
    :: List.map
         (fun (tab, nodes) ->
           Indexing.Stream_table.integrity tab ~source:(fun () ->
               Wbb.level_positions t.tree t.x nodes))
         (Wbb.storages t.tree t.level_tables t.leaf_table))

let metadata_bits t =
  (Char_counts.region t.a).Iosim.Device.len + t.meta_total_bits

let size_bits t =
  let tables =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some tab -> acc + Indexing.Stream_table.size_bits tab)
      0 t.level_tables
  in
  tables + Indexing.Stream_table.size_bits t.leaf_table + metadata_bits t

let instance_of t =
  {
    Indexing.Instance.name = "secidx-static";
    device = t.device;
    n = t.tree.Wbb.n;
    sigma = t.tree.Wbb.sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity = Some (integrity t);
  }

let instance ?c ?complement ?schedule ?code device ~sigma x =
  instance_of (build ?c ?complement ?schedule ?code device ~sigma x)
