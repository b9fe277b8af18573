type op = Add | Remove

type record = { rop : op; rstream : int; rpos : int }

type leaf = {
  lstream : int;
  mutable low : int; (* routing boundary: this leaf owns positions >= low *)
  mutable count : int;
  mutable bits : int;
  mutable lregion : Iosim.Device.region;
  mutable lmirror : Bitio.Bitbuf.t option; (* full-block shadow image *)
  mutable lframe : Iosim.Frame.t option;
}

let leaf_magic = 0x5DB1

type tree = Leaf of leaf | Node of inode

and inode = {
  mutable children : tree array;
  mutable buffer : record list; (* oldest first *)
  mutable buf_len : int;
  mutable nkey : int * int;
  nregion : Iosim.Device.region;
}

type t = {
  device : Iosim.Device.t;
  code : Cbitmap.Gap_codec.code;
  c : int;
  cap : int; (* records per buffer *)
  rec_bits : int;
  pos_bits : int;
  stream_bits : int;
  streams : int;
  mutable root : inode;
  mutable nleaves : int;
  mutable ninodes : int;
}

let key = function Leaf l -> (l.lstream, l.low) | Node n -> n.nkey

let leaf_count t = t.nleaves

let height t =
  let rec go tr acc =
    match tr with Leaf _ -> acc | Node n -> go n.children.(0) (acc + 1)
  in
  go (Node t.root) 0

let size_bits t =
  let bb = Iosim.Device.block_bits t.device in
  (t.nleaves + t.ninodes) * bb

(* ---- leaf I/O ---- *)

let read_leaf t l =
  if l.count = 0 then Cbitmap.Posting.empty
  else begin
    let buf =
      Iosim.Device.read_region t.device { l.lregion with Iosim.Device.len = l.bits }
    in
    Cbitmap.Gap_codec.decode ~code:t.code
      (Bitio.Decoder.of_bitbuf buf)
      ~count:l.count
  end

let write_leaf t l posting =
  let buf = Bitio.Bitbuf.create () in
  Cbitmap.Gap_codec.encode ~code:t.code buf posting;
  let bits = Bitio.Bitbuf.length buf in
  assert (bits <= l.lregion.Iosim.Device.len);
  Iosim.Device.write_buf t.device { l.lregion with Iosim.Device.len = bits } buf;
  l.count <- Cbitmap.Posting.cardinal posting;
  l.bits <- bits;
  (* Overlay the written prefix on the shadow image (a fresh block
     starts zeroed; a rewrite keeps the old tail on the device too). *)
  let img =
    match l.lmirror with
    | Some img -> img
    | None ->
        let img =
          Iosim.Frame.padded ~len:l.lregion.Iosim.Device.len
            (Bitio.Bitbuf.create ())
        in
        l.lmirror <- Some img;
        img
  in
  Bitio.Bitbuf.blit buf ~src_bit:0 img ~dst_bit:0 ~len:bits;
  match l.lframe with Some f -> Iosim.Frame.invalidate f | None -> ()

(* Leaf blocks hold gap-coded payload; inode blocks hold write
   buffers, ledgered separately as "buffers". *)
let alloc_block ?(component = "payload") device =
  Iosim.Device.with_component device component (fun () ->
      Iosim.Device.alloc ~align_block:true device (Iosim.Device.block_bits device))

(* ---- buffer serialization (content written for realism; the cost
   accounting is the block write itself) ---- *)

let write_buffer t n =
  (* The in-memory buffer is authoritative; the device copy exists for
     I/O accounting and may be truncated while the buffer transiently
     exceeds one block (it is flushed below capacity right after). *)
  let max_records = n.nregion.Iosim.Device.len / t.rec_bits in
  let buf = Bitio.Bitbuf.create () in
  List.iteri
    (fun i r ->
      if i < max_records then begin
        Bitio.Bitbuf.write_bits buf ~width:1
          (match r.rop with Add -> 1 | Remove -> 0);
        Bitio.Bitbuf.write_bits buf ~width:t.stream_bits r.rstream;
        Bitio.Bitbuf.write_bits buf ~width:t.pos_bits r.rpos
      end)
    n.buffer;
  let bits = Bitio.Bitbuf.length buf in
  Iosim.Device.write_buf t.device { n.nregion with Iosim.Device.len = bits } buf

let touch_buffer_read t n =
  (* Reading a buffer costs its block; content is authoritative in
     memory, so we only charge the transfer. *)
  ignore
    (Iosim.Device.read_bits t.device ~pos:n.nregion.Iosim.Device.off ~width:1)

(* Shadow image of a leaf block; an unwritten leaf still holds its
   alloc-time zeros. *)
let leaf_image_of ~device (l : leaf) =
  match l.lmirror with
  | Some img -> img
  | None ->
      Iosim.Frame.padded
        ~len:(Iosim.Device.block_bits device)
        (Bitio.Bitbuf.create ())

(* Seal a frame over every leaf that lacks one, from contents the
   writer just produced.  Called at the end of [build] (a lazy first
   seal at scrub time would bless whatever corruption preceded it) and
   again from [frames] for leaves created by later splits. *)
let seal_leaves t =
  let rec go = function
    | Node n -> Array.iter go n.children
    | Leaf l -> (
        match l.lframe with
        | Some _ -> ()
        | None ->
            l.lframe <-
              Some
                (Iosim.Frame.seal t.device ~magic:leaf_magic
                   ~rebuild:(fun () -> leaf_image_of ~device:t.device l)
                   ~image:(leaf_image_of ~device:t.device l)
                   l.lregion))
  in
  go (Node t.root)

(* ---- build ---- *)

let build ?(c = 8) ?(pos_bits = 40) ?(code = Cbitmap.Gap_codec.Gamma) device
    postings =
  let streams = Array.length postings in
  if streams = 0 then invalid_arg "Buffered_bitmap.build: no streams";
  let bb = Iosim.Device.block_bits device in
  let stream_bits = Indexing.Common.bits_for (max 2 streams) in
  let rec_bits = 1 + stream_bits + pos_bits in
  let cap = max 4 (bb / rec_bits) in
  let nleaves = ref 0 and ninodes = ref 0 in
  let t_stub =
    {
      device;
      code;
      c;
      cap;
      rec_bits;
      pos_bits;
      stream_bits;
      streams;
      root =
        {
          children = [||];
          buffer = [];
          buf_len = 0;
          nkey = (0, 0);
          nregion = { Iosim.Device.off = 0; len = 0 };
        };
      nleaves = 0;
      ninodes = 0;
    }
  in
  (* Leaves: blocked pieces of at most bb/2 payload bits per stream. *)
  let leaves = ref [] in
  Array.iteri
    (fun s p ->
      let blocked = Cbitmap.Blocked.encode ~code ~payload_bits:(bb / 2) p in
      let nblocks = Cbitmap.Blocked.block_count blocked in
      if nblocks = 0 then begin
        let l =
          {
            lstream = s;
            low = 0;
            count = 0;
            bits = 0;
            lregion = alloc_block device;
            lmirror = None;
            lframe = None;
          }
        in
        incr nleaves;
        leaves := l :: !leaves
      end
      else
        for i = 0 to nblocks - 1 do
          let piece = Cbitmap.Blocked.decode_block ~code blocked i in
          let low = if i = 0 then 0 else Cbitmap.Blocked.first blocked i in
          let l =
            {
              lstream = s;
              low;
              count = 0;
              bits = 0;
              lregion = alloc_block device;
              lmirror = None;
              lframe = None;
            }
          in
          write_leaf t_stub l piece;
          incr nleaves;
          leaves := l :: !leaves
        done)
    postings;
  let leaves = Array.of_list (List.rev !leaves) in
  (* Group into a c-ary tree. *)
  let rec group (nodes : tree array) =
    if Array.length nodes = 1 then
      match nodes.(0) with
      | Node n -> n
      | Leaf _ ->
          incr ninodes;
          {
            children = nodes;
            buffer = [];
            buf_len = 0;
            nkey = key nodes.(0);
            nregion = alloc_block ~component:"buffers" device;
          }
    else begin
      let parts = (Array.length nodes + c - 1) / c in
      let parents =
        Array.init parts (fun i ->
            let s = i * c in
            let e = min (Array.length nodes) (s + c) in
            let children = Array.sub nodes s (e - s) in
            incr ninodes;
            Node
              {
                children;
                buffer = [];
                buf_len = 0;
                nkey = key children.(0);
                nregion = alloc_block ~component:"buffers" device;
              })
      in
      group parents
    end
  in
  let root = group (Array.map (fun l -> Leaf l) leaves) in
  let t = { t_stub with root; nleaves = !nleaves; ninodes = !ninodes } in
  seal_leaves t;
  t

(* ---- integrity ---- *)

(* Frames over the current leaf set.  Leaves created since the last
   call (splits) are sealed first; buffer blocks stay unframed — their
   device copy only exists for I/O accounting, the in-memory buffer is
   authoritative, so flips there cannot corrupt answers. *)
let frames t =
  seal_leaves t;
  let acc = ref [] in
  let rec go = function
    | Node n -> Array.iter go n.children
    | Leaf l -> ( match l.lframe with Some f -> acc := f :: !acc | None -> ())
  in
  go (Node t.root);
  !acc

let integrity t = Indexing.Integrity.of_frames (fun () -> frames t)

(* ---- routing ---- *)

let route_index children k =
  (* Last child whose key is <= k; 0 if k is below every key. *)
  let lo = ref 0 and hi = ref (Array.length children - 1) in
  if compare (key children.(0)) k > 0 then 0
  else begin
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if compare (key children.(mid)) k <= 0 then lo := mid else hi := mid - 1
    done;
    !lo
  end

(* ---- leaf application and splits ---- *)

(* Returns replacement leaves (1 when in place, more after a split). *)
let apply_to_leaf t (l : leaf) records =
  let posting = read_leaf t l in
  let set = Hashtbl.create (max 16 (Cbitmap.Posting.cardinal posting)) in
  Cbitmap.Posting.iter (fun p -> Hashtbl.replace set p ()) posting;
  List.iter
    (fun r ->
      assert (r.rstream = l.lstream);
      match r.rop with
      | Add -> Hashtbl.replace set r.rpos ()
      | Remove -> Hashtbl.remove set r.rpos)
    records;
  let updated =
    Cbitmap.Posting.of_list (Hashtbl.fold (fun p () acc -> p :: acc) set [])
  in
  let bb = Iosim.Device.block_bits t.device in
  if Cbitmap.Gap_codec.encoded_size ~code:t.code updated <= bb then begin
    write_leaf t l updated;
    [ l ]
  end
  else begin
    (* Split into pieces of at most bb/2 payload bits. *)
    let blocked = Cbitmap.Blocked.encode ~code:t.code ~payload_bits:(bb / 2) updated in
    let pieces =
      List.init (Cbitmap.Blocked.block_count blocked) (fun i ->
          (Cbitmap.Blocked.decode_block ~code:t.code blocked i,
           Cbitmap.Blocked.first blocked i))
    in
    match pieces with
    | [] ->
        write_leaf t l Cbitmap.Posting.empty;
        [ l ]
    | (first_piece, _) :: rest ->
        write_leaf t l first_piece;
        let new_leaves =
          List.map
            (fun (piece, low) ->
              let nl =
                {
                  lstream = l.lstream;
                  low;
                  count = 0;
                  bits = 0;
                  lregion = alloc_block t.device;
                  lmirror = None;
                  lframe = None;
                }
              in
              write_leaf t nl piece;
              t.nleaves <- t.nleaves + 1;
              nl)
            rest
        in
        l :: new_leaves
  end

(* Insert replacement children for child index [i] of [n]. *)
let replace_child n i (replacements : tree list) =
  match replacements with
  | [ single ] -> n.children.(i) <- single
  | _ ->
      let before = Array.sub n.children 0 i in
      let after =
        Array.sub n.children (i + 1) (Array.length n.children - i - 1)
      in
      n.children <- Array.concat [ before; Array.of_list replacements; after ];
      n.nkey <- key n.children.(0)

(* Split an overfull inode in two; returns the new right sibling. *)
let split_inode t n =
  let len = Array.length n.children in
  let half = len / 2 in
  let right_children = Array.sub n.children half (len - half) in
  n.children <- Array.sub n.children 0 half;
  let right =
    {
      children = right_children;
      buffer = [];
      buf_len = 0;
      nkey = key right_children.(0);
      nregion = alloc_block ~component:"buffers" t.device;
    }
  in
  t.ninodes <- t.ninodes + 1;
  (* Distribute buffered records between the halves. *)
  let left_buf = ref [] and right_buf = ref [] in
  List.iter
    (fun r ->
      if compare (r.rstream, r.rpos) right.nkey >= 0 then
        right_buf := r :: !right_buf
      else left_buf := r :: !left_buf)
    n.buffer;
  n.buffer <- List.rev !left_buf;
  n.buf_len <- List.length n.buffer;
  right.buffer <- List.rev !right_buf;
  right.buf_len <- List.length right.buffer;
  write_buffer t n;
  write_buffer t right;
  right

let max_children t = 4 * t.c

(* Flush one overfull buffer: move the largest per-child group one
   level down.  Returns possible extra sibling produced by child
   splits that overflowed [n] itself (handled by the caller). *)
let rec flush t n ~is_root =
  (* Group records by child index, preserving order. *)
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let i = route_index n.children (r.rstream, r.rpos) in
      let g = Option.value ~default:[] (Hashtbl.find_opt groups i) in
      Hashtbl.replace groups i (r :: g))
    n.buffer;
  let best = ref (-1) and best_len = ref 0 in
  Hashtbl.iter
    (fun i g ->
      let len = List.length g in
      if len > !best_len then begin
        best := i;
        best_len := len
      end)
    groups;
  if !best >= 0 then begin
    (* Partition the buffer: everything routed to the chosen child
       moves down, order preserved. *)
    let moved = ref [] and kept = ref [] in
    List.iter
      (fun r ->
        if route_index n.children (r.rstream, r.rpos) = !best then
          moved := r :: !moved
        else kept := r :: !kept)
      n.buffer;
    let moved = List.rev !moved in
    n.buffer <- List.rev !kept;
    n.buf_len <- n.buf_len - !best_len;
    if not is_root then write_buffer t n;
    match n.children.(!best) with
    | Node child ->
        child.buffer <- child.buffer @ moved;
        child.buf_len <- child.buf_len + !best_len;
        write_buffer t child;
        (* Drain the child below capacity before anything else can
           append to it, so its buffer always fits its block. *)
        while child.buf_len > t.cap do
          flush t child ~is_root:false
        done;
        if Array.length child.children > max_children t then begin
          let right = split_inode t child in
          replace_child n !best [ Node child; Node right ]
        end
    | Leaf l ->
        let replacements = apply_to_leaf t l moved in
        replace_child n !best (List.map (fun l -> Leaf l) replacements)
  end

let rec maybe_flush_root t =
  if t.root.buf_len > t.cap then begin
    flush t t.root ~is_root:true;
    if Array.length t.root.children > max_children t then begin
      let right = split_inode t t.root in
      let left = t.root in
      let new_root =
        {
          children = [| Node left; Node right |];
          buffer = [];
          buf_len = 0;
          nkey = key (Node left);
          nregion = alloc_block ~component:"buffers" t.device;
        }
      in
      t.ninodes <- t.ninodes + 1;
      t.root <- new_root
    end;
    maybe_flush_root t
  end

let update t op ~stream ~pos =
  if stream < 0 || stream >= t.streams then invalid_arg "Buffered_bitmap.update";
  if pos < 0 || pos >= 1 lsl t.pos_bits then
    invalid_arg "Buffered_bitmap.update: position out of range";
  t.root.buffer <- t.root.buffer @ [ { rop = op; rstream = stream; rpos = pos } ];
  t.root.buf_len <- t.root.buf_len + 1;
  maybe_flush_root t

(* ---- queries ---- *)

let range_query t ~lo ~hi =
  if lo < 0 || hi >= t.streams || lo > hi then
    invalid_arg "Buffered_bitmap.range_query";
  let lo_key = (lo, 0) and hi_key = (hi, max_int) in
  (* Collect leaf postings and buffered records (deepest = oldest
     first). *)
  let postings = ref [] in
  let records_by_depth = ref [] in
  let rec go tr depth =
    match tr with
    | Leaf l ->
        if l.lstream >= lo && l.lstream <= hi then
          postings := (l.lstream, read_leaf t l) :: !postings
    | Node n ->
        touch_buffer_read t n;
        let relevant =
          List.filter (fun r -> r.rstream >= lo && r.rstream <= hi) n.buffer
        in
        if relevant <> [] then records_by_depth := (depth, relevant) :: !records_by_depth;
        let nchildren = Array.length n.children in
        Array.iteri
          (fun i ch ->
            (* Child i covers [key_i, key_{i+1}); recurse if that
               range intersects [lo_key, hi_key]. *)
            let k_i = key ch in
            let upper_ok = compare k_i hi_key <= 0 in
            let lower_ok =
              i + 1 >= nchildren
              || compare (key n.children.(i + 1)) lo_key > 0
            in
            if upper_ok && lower_ok then go ch (depth + 1))
          n.children
  in
  Obs.Metrics.(in_phase payload) (fun () -> go (Node t.root) 0);
  (* Updates are per-stream: a Remove on stream B must not cancel the
     same position held by stream A, so keep (stream, pos) keys until
     the final union. *)
  let ordered =
    List.sort (fun (d1, _) (d2, _) -> compare d2 d1) !records_by_depth
  in
  let set = Hashtbl.create 64 in
  List.iter
    (fun (stream, posting) ->
      Cbitmap.Posting.iter (fun p -> Hashtbl.replace set (stream, p) ()) posting)
    !postings;
  List.iter
    (fun (_, records) ->
      List.iter
        (fun r ->
          match r.rop with
          | Add -> Hashtbl.replace set (r.rstream, r.rpos) ()
          | Remove -> Hashtbl.remove set (r.rstream, r.rpos))
        records)
    ordered;
  Cbitmap.Posting.of_list (Hashtbl.fold (fun (_, p) () acc -> p :: acc) set [])

let point_query t s = range_query t ~lo:s ~hi:s

let flush_all t =
  (* Repeat whole-tree passes until no buffered record remains; a
     single pass is not enough because splits during a pass can move
     records into nodes the pass already visited. *)
  let rec pending n =
    Array.fold_left
      (fun acc -> function Node ch -> acc + pending ch | Leaf _ -> acc)
      n.buf_len n.children
  in
  let rec drain n =
    while n.buf_len > 0 do
      flush t n ~is_root:(n == t.root)
    done;
    Array.iter (function Node ch -> drain ch | Leaf _ -> ()) n.children
  in
  while pending t.root > 0 do
    drain t.root
  done;
  if Array.length t.root.children > max_children t then begin
    let right = split_inode t t.root in
    let left = t.root in
    let new_root =
      {
        children = [| Node left; Node right |];
        buffer = [];
        buf_len = 0;
        nkey = key (Node left);
        nregion = alloc_block ~component:"buffers" t.device;
      }
    in
    t.ninodes <- t.ninodes + 1;
    t.root <- new_root
  end

let instance ?c device ~sigma x =
  let t = build ?c device (Indexing.Common.positions_by_char ~sigma x) in
  {
    Indexing.Instance.name = "secidx-buffered-bitmap";
    device;
    n = Array.length x;
    sigma;
    size_bits = size_bits t;
    query =
      (fun ~lo ~hi ->
        match Indexing.Common.clamp_range ~sigma ~lo ~hi with
        | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
        | Some (lo, hi) -> Indexing.Answer.Direct (range_query t ~lo ~hi));
    batch = None;
    integrity = Some (integrity t);
  }
