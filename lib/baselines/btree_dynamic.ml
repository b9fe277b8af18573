let tag_bits = 1
let count_bits = 16
let child_bits = 32
let no_next = (1 lsl child_bits) - 1
let node_magic = 0xB7ED

type node =
  | Leaf of { keys : int array; next : int }
  | Internal of { seps : int array; children : int array }

type t = {
  device : Iosim.Device.t;
  sigma : int;
  entry_bits : int;
  pos_bits : int;
  mutable root : int; (* block id *)
  mutable height : int;
  mutable nblocks : int;
  mutable nkeys : int;
  leaf_cap : int;
  internal_cap : int;
  (* Integrity state: [mirror] holds each node block's full current
     image (writes cover only a prefix of the block, so the image is
     maintained by overlaying each write on the previous contents);
     [frames] holds the checksummed frame per block once sealed. *)
  mirror : (int, Bitio.Bitbuf.t) Hashtbl.t;
  frames : (int, Iosim.Frame.t) Hashtbl.t;
}

let key_of t ~char_ ~pos = (char_ lsl t.pos_bits) lor pos
let pos_mask t = (1 lsl t.pos_bits) - 1

let alloc_node t =
  let bb = Iosim.Device.block_bits t.device in
  let r = Iosim.Device.alloc ~align_block:true t.device bb in
  t.nblocks <- t.nblocks + 1;
  r.Iosim.Device.off / bb

let write_node t block node =
  let bb = Iosim.Device.block_bits t.device in
  let buf = Bitio.Bitbuf.create ~capacity:bb () in
  (match node with
  | Leaf { keys; next } ->
      Bitio.Bitbuf.write_bits buf ~width:tag_bits 1;
      Bitio.Bitbuf.write_bits buf ~width:count_bits (Array.length keys);
      Bitio.Bitbuf.write_bits buf ~width:child_bits next;
      Array.iter (Bitio.Bitbuf.write_bits buf ~width:t.entry_bits) keys
  | Internal { seps; children } ->
      Bitio.Bitbuf.write_bits buf ~width:tag_bits 0;
      Bitio.Bitbuf.write_bits buf ~width:count_bits (Array.length seps);
      Array.iteri
        (fun i sep ->
          Bitio.Bitbuf.write_bits buf ~width:t.entry_bits sep;
          Bitio.Bitbuf.write_bits buf ~width:child_bits children.(i))
        seps);
  Iosim.Device.write_buf t.device
    { Iosim.Device.off = block * bb; len = Bitio.Bitbuf.length buf }
    buf;
  (* Keep the shadow image current: overlay the written prefix on the
     block's previous contents (a fresh block starts zeroed). *)
  let img =
    match Hashtbl.find_opt t.mirror block with
    | Some img -> img
    | None ->
        let img = Iosim.Frame.padded ~len:bb (Bitio.Bitbuf.create ()) in
        Hashtbl.replace t.mirror block img;
        img
  in
  Bitio.Bitbuf.blit buf ~src_bit:0 img ~dst_bit:0
    ~len:(Bitio.Bitbuf.length buf);
  match Hashtbl.find_opt t.frames block with
  | Some f -> Iosim.Frame.invalidate f
  | None -> ()

let read_node t block =
  let bb = Iosim.Device.block_bits t.device in
  let d = Iosim.Device.decoder t.device ~pos:(block * bb) in
  let is_leaf = Bitio.Decoder.read_bits d tag_bits = 1 in
  let count = Bitio.Decoder.read_bits d count_bits in
  if is_leaf then begin
    let next = Bitio.Decoder.read_bits d child_bits in
    let keys =
      Array.init count (fun _ -> Bitio.Decoder.read_bits d t.entry_bits)
    in
    Leaf { keys; next }
  end
  else begin
    let seps = Array.make count 0 and children = Array.make count 0 in
    for i = 0 to count - 1 do
      seps.(i) <- Bitio.Decoder.read_bits d t.entry_bits;
      children.(i) <- Bitio.Decoder.read_bits d child_bits
    done;
    Internal { seps; children }
  end

let create device ~sigma ~n_hint =
  let pos_bits = Indexing.Common.bits_for (max 2 (4 * n_hint)) in
  let char_bits = Indexing.Common.bits_for (max 2 sigma) in
  let entry_bits = pos_bits + char_bits in
  let bb = Iosim.Device.block_bits device in
  let leaf_cap = (bb - tag_bits - count_bits - child_bits) / entry_bits in
  let internal_cap = (bb - tag_bits - count_bits) / (entry_bits + child_bits) in
  if leaf_cap < 2 || internal_cap < 3 then
    invalid_arg "Btree_dynamic.create: block too small";
  let t =
    {
      device;
      sigma;
      entry_bits;
      pos_bits;
      root = 0;
      height = 1;
      nblocks = 0;
      nkeys = 0;
      leaf_cap;
      internal_cap;
      mirror = Hashtbl.create 64;
      frames = Hashtbl.create 64;
    }
  in
  t.root <-
    Iosim.Device.with_component device "payload" (fun () -> alloc_node t);
  write_node t t.root (Leaf { keys = [||]; next = no_next });
  t

let cardinal t = t.nkeys
let height t = t.height

(* Index of the child to descend into: first separator >= key, else
   the last child. *)
let route seps key =
  let n = Array.length seps in
  let rec go i = if i >= n - 1 then n - 1 else if seps.(i) >= key then i else go (i + 1) in
  go 0

let insert_sorted arr v =
  let n = Array.length arr in
  let out = Array.make (n + 1) 0 in
  let k = ref 0 in
  while !k < n && arr.(!k) < v do
    incr k
  done;
  Array.blit arr 0 out 0 !k;
  out.(!k) <- v;
  Array.blit arr !k out (!k + 1) (n - !k);
  out

(* Result of a recursive insert: the subtree's new maximum key, plus a
   new right sibling if the node split. *)
type ins_result = { new_max : int; split : (int * int) option (* (right max, right block) *) }

let rec ins t block key =
  match read_node t block with
  | Leaf { keys; next } ->
      if Array.exists (fun k -> k = key) keys then
        { new_max = keys.(Array.length keys - 1); split = None }
      else begin
        t.nkeys <- t.nkeys + 1;
        let keys = insert_sorted keys key in
        let n = Array.length keys in
        if n <= t.leaf_cap then begin
          write_node t block (Leaf { keys; next });
          { new_max = keys.(n - 1); split = None }
        end
        else begin
          let half = n / 2 in
          let left = Array.sub keys 0 half in
          let right = Array.sub keys half (n - half) in
          let rb =
            Iosim.Device.with_component t.device "payload" (fun () ->
                alloc_node t)
          in
          write_node t rb (Leaf { keys = right; next });
          write_node t block (Leaf { keys = left; next = rb });
          {
            new_max = left.(half - 1);
            split = Some (right.(Array.length right - 1), rb);
          }
        end
      end
  | Internal { seps; children } ->
      let i = route seps key in
      let r = ins t children.(i) key in
      let seps = Array.copy seps in
      seps.(i) <- max seps.(i) r.new_max;
      (match r.split with
      | None ->
          write_node t block (Internal { seps; children });
          { new_max = seps.(Array.length seps - 1); split = None }
      | Some (right_max, right_block) ->
          (* child i kept the left half; insert the right sibling
             after it.  The left half's max is r.new_max. *)
          seps.(i) <- r.new_max;
          let n = Array.length seps in
          let seps' = Array.make (n + 1) 0 in
          let children' = Array.make (n + 1) 0 in
          Array.blit seps 0 seps' 0 (i + 1);
          Array.blit children 0 children' 0 (i + 1);
          seps'.(i + 1) <- right_max;
          children'.(i + 1) <- right_block;
          Array.blit seps (i + 1) seps' (i + 2) (n - i - 1);
          Array.blit children (i + 1) children' (i + 2) (n - i - 1);
          if n + 1 <= t.internal_cap then begin
            write_node t block (Internal { seps = seps'; children = children' });
            { new_max = seps'.(n); split = None }
          end
          else begin
            let half = (n + 1) / 2 in
            let lseps = Array.sub seps' 0 half
            and lchildren = Array.sub children' 0 half in
            let rseps = Array.sub seps' half (n + 1 - half)
            and rchildren = Array.sub children' half (n + 1 - half) in
            let rb =
              Iosim.Device.with_component t.device "directory" (fun () ->
                  alloc_node t)
            in
            write_node t rb (Internal { seps = rseps; children = rchildren });
            write_node t block (Internal { seps = lseps; children = lchildren });
            {
              new_max = lseps.(half - 1);
              split = Some (rseps.(Array.length rseps - 1), rb);
            }
          end)

let insert t ~char_ ~pos =
  if char_ < 0 || char_ >= t.sigma then invalid_arg "Btree_dynamic.insert";
  if pos < 0 || pos > pos_mask t then
    invalid_arg "Btree_dynamic.insert: position";
  let key = key_of t ~char_ ~pos in
  let r = ins t t.root key in
  match r.split with
  | None -> ()
  | Some (right_max, right_block) ->
      let new_root =
        Iosim.Device.with_component t.device "directory" (fun () ->
            alloc_node t)
      in
      write_node t new_root
        (Internal
           {
             seps = [| r.new_max; right_max |];
             children = [| t.root; right_block |];
           });
      t.root <- new_root;
      t.height <- t.height + 1

(* Seal a frame over every mirrored block that lacks one.  Called when
   the device contents are known-good (end of build, or inside the
   integrity closure for blocks allocated by later inserts — those are
   trusted at their first scrub, like any in-place mutation). *)
let seal_unframed t =
  let bb = Iosim.Device.block_bits t.device in
  Hashtbl.iter
    (fun block _ ->
      if not (Hashtbl.mem t.frames block) then
        Hashtbl.replace t.frames block
          (Iosim.Frame.seal t.device ~magic:node_magic
             ~rebuild:(fun () -> Hashtbl.find t.mirror block)
             ~image:(Hashtbl.find t.mirror block)
             { Iosim.Device.off = block * bb; len = bb }))
    t.mirror

let frame_list t =
  seal_unframed t;
  Hashtbl.fold (fun _ f acc -> f :: acc) t.frames []

let build device ~sigma x =
  let t = create device ~sigma ~n_hint:(max 2 (Array.length x)) in
  Array.iteri (fun pos char_ -> insert t ~char_ ~pos) x;
  seal_unframed t;
  t

let query_clamped t ~lo ~hi =
  let lo_key = key_of t ~char_:lo ~pos:0 in
  let hi_key = key_of t ~char_:hi ~pos:(pos_mask t) in
  (* Descend to the candidate leaf. *)
  let rec descend block =
    match read_node t block with
    | Leaf _ -> block
    | Internal { seps; children } -> descend children.(route seps lo_key)
  in
  let acc = ref [] in
  let rec scan block =
    if block <> no_next then
      match read_node t block with
      | Internal _ -> ()
      | Leaf { keys; next } ->
          let past = ref false in
          Array.iter
            (fun key ->
              if key > hi_key then past := true
              else if key >= lo_key then acc := (key land pos_mask t) :: !acc)
            keys;
          if not !past then scan next
  in
  let leaf =
    Obs.Metrics.(in_phase directory) (fun () -> descend t.root)
  in
  Obs.Metrics.(in_phase payload) (fun () -> scan leaf);
  Indexing.Answer.Direct (Cbitmap.Posting.of_list !acc)

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) -> query_clamped t ~lo ~hi

let size_bits t = t.nblocks * Iosim.Device.block_bits t.device

let instance device ~sigma x =
  let t = build device ~sigma x in
  {
    Indexing.Instance.name = "btree-dynamic";
    device;
    n = Array.length x;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = None;
    integrity = Some (Indexing.Integrity.of_frames (fun () -> frame_list t));
  }
