let count_bits = 16
let child_bits = 32
let node_magic = 0xB7EE

type t = {
  device : Iosim.Device.t;
  n : int;
  sigma : int;
  entry_bits : int;
  pos_bits : int;
  root_block : int; (* block id of the root *)
  first_leaf_block : int;
  leaf_count : int;
  height : int;
  node_count : int;
  frames : Iosim.Frame.t list;
}

let key_of t ~c ~pos = (c lsl t.pos_bits) lor pos

(* Allocate one block and return its id. *)
let alloc_node device =
  let bb = Iosim.Device.block_bits device in
  let r = Iosim.Device.alloc ~align_block:true device bb in
  r.Iosim.Device.off / bb

let write_node device ~block buf =
  let bb = Iosim.Device.block_bits device in
  Iosim.Device.write_buf device
    { Iosim.Device.off = block * bb; len = bb }
    buf

let build device ~sigma x =
  let n = Array.length x in
  let pos_bits = Indexing.Common.bits_for (max 2 n) in
  let char_bits = Indexing.Common.bits_for (max 2 sigma) in
  let entry_bits = pos_bits + char_bits in
  let bb = Iosim.Device.block_bits device in
  let leaf_cap = (bb - count_bits) / entry_bits in
  let internal_cap = (bb - count_bits) / (entry_bits + child_bits) in
  if leaf_cap < 1 || internal_cap < 2 then
    invalid_arg "Btree.build: block size too small for an entry";
  let t0 =
    {
      device;
      n;
      sigma;
      entry_bits;
      pos_bits;
      root_block = 0;
      first_leaf_block = 0;
      leaf_count = 0;
      height = 1;
      node_count = 0;
      frames = [];
    }
  in
  (* Node blocks are recorded as they are written and sealed under
     frames once the tree is complete — sealing between nodes would
     break the consecutive-leaf-block layout the scan relies on. *)
  let node_bufs = ref [] in
  (* Entries in (char, pos) order. *)
  let postings = Indexing.Common.positions_by_char ~sigma x in
  let entries = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun c p ->
      Cbitmap.Posting.iter
        (fun pos ->
          entries.(!k) <- key_of t0 ~c ~pos;
          incr k)
        p)
    postings;
  (* Build leaves: consecutive blocks. *)
  let nleaves = max 1 ((n + leaf_cap - 1) / leaf_cap) in
  let leaf_blocks = Array.make nleaves 0 in
  let leaf_max_keys = Array.make nleaves 0 in
  for l = 0 to nleaves - 1 do
    let start = l * leaf_cap in
    let stop = min n (start + leaf_cap) in
    let buf = Bitio.Bitbuf.create ~capacity:bb () in
    Bitio.Bitbuf.write_bits buf ~width:count_bits (stop - start);
    for i = start to stop - 1 do
      Bitio.Bitbuf.write_bits buf ~width:entry_bits entries.(i)
    done;
    let block =
      Iosim.Device.with_component device "payload" (fun () ->
          alloc_node device)
    in
    write_node device ~block buf;
    node_bufs := (block, buf) :: !node_bufs;
    leaf_blocks.(l) <- block;
    leaf_max_keys.(l) <- (if stop > start then entries.(stop - 1) else 0)
  done;
  (* Build internal levels bottom-up. *)
  let rec build_level blocks max_keys height nodes =
    let count = Array.length blocks in
    if count = 1 then (blocks.(0), height, nodes)
    else begin
      let nparents = (count + internal_cap - 1) / internal_cap in
      let pblocks = Array.make nparents 0 in
      let pmax = Array.make nparents 0 in
      for p = 0 to nparents - 1 do
        let start = p * internal_cap in
        let stop = min count (start + internal_cap) in
        let buf = Bitio.Bitbuf.create ~capacity:bb () in
        Bitio.Bitbuf.write_bits buf ~width:count_bits (stop - start);
        for i = start to stop - 1 do
          Bitio.Bitbuf.write_bits buf ~width:entry_bits max_keys.(i);
          Bitio.Bitbuf.write_bits buf ~width:child_bits blocks.(i)
        done;
        let block =
          Iosim.Device.with_component device "directory" (fun () ->
              alloc_node device)
        in
        write_node device ~block buf;
        node_bufs := (block, buf) :: !node_bufs;
        pblocks.(p) <- block;
        pmax.(p) <- max_keys.(stop - 1)
      done;
      build_level pblocks pmax (height + 1) (nodes + nparents)
    end
  in
  let root_block, height, node_count =
    build_level leaf_blocks leaf_max_keys 1 nleaves
  in
  let frames =
    List.rev_map
      (fun (block, buf) ->
        Iosim.Frame.seal device ~magic:node_magic
          ~rebuild:(fun () -> Iosim.Frame.padded ~len:bb buf)
          ~image:(Iosim.Frame.padded ~len:bb buf)
          { Iosim.Device.off = block * bb; len = bb })
      !node_bufs
  in
  {
    t0 with
    root_block;
    first_leaf_block = leaf_blocks.(0);
    leaf_count = nleaves;
    height;
    node_count;
    frames;
  }

let height t = t.height
let node_count t = t.node_count

let read_count t ~block =
  let bb = Iosim.Device.block_bits t.device in
  Iosim.Device.read_bits t.device ~pos:(block * bb) ~width:count_bits

(* Find the child to descend into for the smallest entry >= key. *)
let descend_step t ~block key =
  let bb = Iosim.Device.block_bits t.device in
  let base = (block * bb) + count_bits in
  let count = read_count t ~block in
  let step = t.entry_bits + child_bits in
  let rec scan i =
    if i >= count - 1 then i
    else begin
      let sep = Iosim.Device.read_bits t.device ~pos:(base + (i * step)) ~width:t.entry_bits in
      if sep >= key then i else scan (i + 1)
    end
  in
  let i = scan 0 in
  Iosim.Device.read_bits t.device
    ~pos:(base + (i * step) + t.entry_bits)
    ~width:child_bits

let leaf_entries t ~block =
  let bb = Iosim.Device.block_bits t.device in
  let count = read_count t ~block in
  let base = (block * bb) + count_bits in
  Array.init count (fun i ->
      Iosim.Device.read_bits t.device
        ~pos:(base + (i * t.entry_bits))
        ~width:t.entry_bits)

(* The one range evaluator, for [query] and [query_batch] alike: the
   descent to the leaf that may hold the first matching key, then the
   scan of the sorted leaf level, each leaf block's entries read by
   [leaf]. *)
let answer t ~lo ~hi leaf =
  if t.n = 0 then Indexing.Answer.Direct Cbitmap.Posting.empty
  else begin
    let lo_key = key_of t ~c:lo ~pos:0 in
    let hi_key = key_of t ~c:hi ~pos:((1 lsl t.pos_bits) - 1) in
    let rec descend block level =
      if level = t.height then block
      else descend (descend_step t ~block lo_key) (level + 1)
    in
    let first =
      Obs.Metrics.(in_phase directory) (fun () ->
          descend t.root_block 1)
    in
    let last_leaf = t.first_leaf_block + t.leaf_count - 1 in
    let pos_mask = (1 lsl t.pos_bits) - 1 in
    let acc = ref [] in
    let rec scan block =
      if block <= last_leaf then begin
        let entries = leaf block in
        let past_end = ref false in
        Array.iter
          (fun key ->
            if key > hi_key then past_end := true
            else if key >= lo_key then acc := (key land pos_mask) :: !acc)
          entries;
        if not !past_end then scan (block + 1)
      end
    in
    Obs.Metrics.(in_phase payload) (fun () -> scan first);
    Indexing.Answer.Direct (Cbitmap.Posting.of_list !acc)
  end

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) -> answer t ~lo ~hi (fun block -> leaf_entries t ~block)

(* Batched execution (PR 5): each unique query still pays its own
   directory descent (charged reads; upper levels become pool hits
   within a batch), but leaf blocks decode at most once per batch —
   with ascending unique ranges the shared scan over the sorted leaf
   level serves every overlapping query. *)
let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.sigma ranges in
  let cache =
    Indexing.Batch.Cache.create
      ~decode:(fun block -> leaf_entries t ~block)
      ()
  in
  Indexing.Batch.fan_out plan
    (Array.map
       (fun (lo, hi) -> answer t ~lo ~hi (Indexing.Batch.Cache.get cache))
       plan.Indexing.Batch.uniq)

let size_bits t = t.node_count * Iosim.Device.block_bits t.device

let instance device ~sigma x =
  let t = build device ~sigma x in
  {
    Indexing.Instance.name = "btree";
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity = Some (Indexing.Integrity.of_frames (fun () -> t.frames));
  }
