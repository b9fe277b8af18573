(** Per-bit reference implementations of the bit-I/O and codec stack.

    [lib] has one decode path: the buffered word decoder
    ({!Bitio.Decoder}, {!Iosim.Device.decoder}).  The seed's per-bit
    readers live here, built only on public calls, so tests and the
    benchmark can check the word path against them: same values, same
    bits charged, same blocks read.  The writer side has its
    references too: a per-bit bit writer ({!Bitbuf}), the seed gamma
    encoder ({!Codes.encode_gamma}: zeros bit by bit, then v) and the
    chunk-at-a-time CRC-32 ({!Crc}).  The interleaved pull-stream
    merge that range unions used before whole-extent decode lives here
    too ({!Merge}, {!Stream_table.merge_union}), and so do the WAL
    store's query and merge by posting set algebra ({!Wal_store}) and
    the planner's per-driver plan costing ({!Plan}).  Nothing in [lib]
    links this library. *)

(** Abstract sequential bit reader: one closure call per read. *)
module Reader = struct
  type t = {
    read_bits : int -> int;
        (** [read_bits w] consumes the next [w] bits (MSB first),
            [0 <= w <= 62]. *)
    bit_pos : unit -> int;  (** Current absolute bit position. *)
    seek : int -> unit;  (** Jump to an absolute bit position. *)
  }

  let read_bit t = t.read_bits 1 = 1

  let of_bitbuf ?(pos = 0) buf =
    let p = ref pos in
    {
      read_bits =
        (fun w ->
          let v = Bitio.Bitbuf.read_bits buf ~pos:!p ~width:w in
          p := !p + w;
          v);
      bit_pos = (fun () -> !p);
      seek = (fun q -> p := q);
    }

  (* Word-at-a-time ([Bitops.get_bits]) with width and bounds checks. *)
  let of_bytes ?(pos = 0) data =
    let len = 8 * Bytes.length data in
    let p = ref pos in
    let read_bits w =
      if w < 0 || w > 62 then invalid_arg "Reader.of_bytes: width";
      if !p < 0 || !p + w > len then invalid_arg "Reader.of_bytes: past end";
      let v = Bitio.Bitops.get_bits data ~pos:!p ~width:w in
      p := !p + w;
      v
    in
    { read_bits; bit_pos = (fun () -> !p); seek = (fun q -> p := q) }

  (* [skip t w] discards the next [w >= 0] bits without reading them. *)
  let skip t w =
    if w < 0 then invalid_arg "Reader.skip";
    t.seek (t.bit_pos () + w)
end

(** The seed's per-bit bit manipulation on raw [bytes]. *)
module Bitops = struct
  let get_bit data i =
    Char.code (Bytes.get data (i lsr 3)) land (0x80 lsr (i land 7)) <> 0

  let set_bit data i b =
    let byte = i lsr 3 and off = i land 7 in
    let c = Char.code (Bytes.get data byte) in
    let c =
      if b then c lor (0x80 lsr off) else c land (lnot (0x80 lsr off) land 0xff)
    in
    Bytes.set data byte (Char.chr c)

  let get_bits data ~pos ~width =
    let v = ref 0 in
    for i = pos to pos + width - 1 do
      v := (!v lsl 1) lor (if get_bit data i then 1 else 0)
    done;
    !v

  let set_bits data ~pos ~width v =
    for i = 0 to width - 1 do
      set_bit data (pos + i) ((v lsr (width - 1 - i)) land 1 = 1)
    done

  let blit src ~src_pos dst ~dst_pos ~len =
    for i = 0 to len - 1 do
      set_bit dst (dst_pos + i) (get_bit src (src_pos + i))
    done

  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
    go x 0

  let msb x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + 1) in
    go x (-1)
end

(** A per-bit bit writer: one char per bit, grown one bit at a time.
    The reference for {!Bitio.Bitbuf}'s word-at-a-time writers. *)
module Bitbuf = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let length = Buffer.length
  let write_bit t b = Buffer.add_char t (if b then '1' else '0')

  let write_bits t ~width v =
    for j = width - 1 downto 0 do
      write_bit t ((v lsr j) land 1 = 1)
    done

  (* [append t t] doubles: the source is read in full first. *)
  let append dst src = Buffer.add_string dst (Buffer.contents src)

  let append_bytes t src ~src_bit ~len =
    for i = 0 to len - 1 do
      write_bit t (Bitops.get_bit src (src_bit + i))
    done

  (* Bits of [dst] outside [dst_bit, dst_bit + len) are kept; the
     buffer grows when the copy runs past its end. *)
  let blit src ~src_bit dst ~dst_bit ~len =
    let s = Buffer.contents src and d = Buffer.contents dst in
    let n = max (String.length d) (dst_bit + len) in
    let out =
      String.init n (fun i ->
          if i >= dst_bit && i < dst_bit + len then s.[src_bit + i - dst_bit]
          else d.[i])
    in
    Buffer.clear dst;
    Buffer.add_string dst out

  let reset = Buffer.clear

  (** ['0'/'1'] string of the contents. *)
  let to_string = Buffer.contents
end

(** CRC-32 one 8-bit chunk at a time, each chunk read bit by bit: the
    reference for {!Bitio.Crc.of_bits}'s whole-byte loops.  The last
    partial chunk is left-aligned and zero-padded. *)
module Crc = struct
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let update_byte crc b =
    (table.((crc lxor b) land 0xFF) lxor (crc lsr 8)) land 0xFFFFFFFF

  let of_bits ?(crc = Bitio.Crc.init) data ~pos ~len =
    let c = ref crc and p = ref pos and rem = ref len in
    while !rem > 0 do
      let w = min 8 !rem in
      let b = Bitops.get_bits data ~pos:!p ~width:w in
      c := update_byte !c (b lsl (8 - w));
      p := !p + w;
      rem := !rem - w
    done;
    !c
end

(** The seed codecs: decoders pull one bit per closure call through
    {!Reader}, encoders write one bit per loop step.  Decode budgets
    match {!Bitio.Codes}: a value that cannot fit the 62-bit word is
    [Secidx_error.Corrupt]. *)
module Codes = struct
  let encode_unary buf v =
    if v < 0 then invalid_arg "Codes.encode_unary";
    for _ = 1 to v do
      Bitio.Bitbuf.write_bit buf true
    done;
    Bitio.Bitbuf.write_bit buf false

  let decode_unary (r : Reader.t) =
    let rec go acc = if Reader.read_bit r then go (acc + 1) else acc in
    go 0

  let encode_gamma buf v =
    if v < 1 then invalid_arg "Codes.encode_gamma";
    let k = Bitio.Codes.floor_log2 v in
    for _ = 1 to k do
      Bitio.Bitbuf.write_bit buf false
    done;
    Bitio.Bitbuf.write_bits buf ~width:(k + 1) v

  let decode_gamma (r : Reader.t) =
    let rec zeros acc =
      if acc > 61 then
        Secidx_error.corrupt "Codes.Naive.decode_gamma: run exceeds word";
      if Reader.read_bit r then acc else zeros (acc + 1)
    in
    let k = zeros 0 in
    if k = 0 then 1 else (1 lsl k) lor r.Reader.read_bits k

  let encode_delta buf v =
    if v < 1 then invalid_arg "Codes.encode_delta";
    let k = Bitio.Codes.floor_log2 v in
    encode_gamma buf (k + 1);
    if k > 0 then Bitio.Bitbuf.write_bits buf ~width:k (v land ((1 lsl k) - 1))

  let decode_delta (r : Reader.t) =
    let k = decode_gamma r - 1 in
    if k > 61 then
      Secidx_error.corrupt
        "Codes.Naive.decode_delta: length prefix %d exceeds word" k;
    if k = 0 then 1 else (1 lsl k) lor r.Reader.read_bits k

  let encode_rice buf ~k v =
    if v < 0 || k < 0 then invalid_arg "Codes.encode_rice";
    encode_unary buf (v lsr k);
    if k > 0 then Bitio.Bitbuf.write_bits buf ~width:k (v land ((1 lsl k) - 1))

  let decode_rice (r : Reader.t) ~k =
    let q = decode_unary r in
    if k > 0 && q > max_int lsr k then
      Secidx_error.corrupt
        "Codes.Naive.decode_rice: quotient %d overflows word" q;
    let rem = if k = 0 then 0 else r.Reader.read_bits k in
    (q lsl k) lor rem

  let decode_fixed (r : Reader.t) ~width = r.Reader.read_bits width

  let encode_fibonacci buf v =
    let terms = Bitio.Codes.fibonacci_decomposition v in
    let top = List.fold_left max 0 terms in
    for i = 0 to top do
      Bitio.Bitbuf.write_bit buf (List.mem i terms)
    done;
    Bitio.Bitbuf.write_bit buf true

  (* Fibonacci numbers F.(0) = 1, F.(1) = 2, F.(2) = 3, 5, 8, ... up
     to the word bound, as in [Bitio.Codes]. *)
  let fibs =
    let rec go a b acc =
      if b > max_int / 2 then List.rev acc else go b (a + b) (b :: acc)
    in
    Array.of_list (go 1 1 [])

  let decode_fibonacci (r : Reader.t) =
    let nfibs = Array.length fibs in
    let rec go i prev acc =
      if i >= nfibs then
        Secidx_error.corrupt
          "Codes.Naive.decode_fibonacci: term F(%d) exceeds word bound" i;
      let bit = Reader.read_bit r in
      if bit && prev then acc
      else go (i + 1) bit (if bit then acc + fibs.(i) else acc)
    in
    go 0 false 0
end

(** Counted per-bit access to a device. *)
module Device = struct
  (* Sequential counted reader at absolute bit [pos].  Each read is one
     [Iosim.Device.read_bits] (range check, one touch per covered
     block, [bits_read]); seeks are free.  Like the word decoder it
     refuses to read once the device has been written or allocated
     since the cursor was made. *)
  let cursor dev ~pos =
    let p = ref pos in
    let gen = Iosim.Device.generation dev in
    let read_bits w =
      let now = Iosim.Device.generation dev in
      if now <> gen then
        raise
          (Secidx_error.Stale_decoder
             (Printf.sprintf
                "Oracle.Device.cursor: device mutated since snapshot \
                 (generation %d, now %d)"
                gen now));
      let v = Iosim.Device.read_bits dev ~pos:!p ~width:w in
      p := !p + w;
      v
    in
    { Reader.read_bits; bit_pos = (fun () -> !p); seek = (fun q -> p := q) }

  (* The seed's region read, kept apart from
     [Iosim.Device.read_region]: it touches every block the region
     spans exactly once, in order — one [Iosim.Device.read_bits
     ~width:1] at the region's first bit in each block — and copies
     the bits one at a time from an uncharged decoder snapshot (peeks
     and seeks never charge).  Block reads, pool hits and seeks match
     a single transfer of the region; [bits_read] grows by the number
     of blocks spanned, not by [region.len]. *)
  let read_region_naive dev (region : Iosim.Device.region) =
    let bb = Iosim.Device.block_bits dev in
    if region.len > 0 then begin
      let first = region.off / bb
      and last = (region.off + region.len - 1) / bb in
      for blk = first to last do
        ignore
          (Iosim.Device.read_bits dev ~pos:(max region.off (blk * bb))
             ~width:1)
      done
    end;
    let d = Iosim.Device.decoder dev ~pos:region.off in
    let out = Bitio.Bitbuf.create ~capacity:region.len () in
    for i = 0 to region.len - 1 do
      Bitio.Decoder.seek d (region.off + i);
      Bitio.Bitbuf.write_bit out (Bitio.Decoder.peek d 1 = 1)
    done;
    out
end

(** K-way merging of pull-based position streams with a binary heap:
    every element is pulled, compared and emitted one at a time. *)
module Merge = struct
  type stream = unit -> int option

  let of_array a =
    let i = ref 0 in
    fun () ->
      if !i >= Array.length a then None
      else begin
        let v = a.(!i) in
        incr i;
        Some v
      end

  let of_posting p = of_array (Cbitmap.Posting.to_array p)

  (* Min-heap of (value, stream index). *)
  type heap = { mutable data : (int * int) array; mutable size : int }

  let heap_create cap = { data = Array.make (max 1 cap) (0, 0); size = 0 }

  let heap_swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec heap_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if fst h.data.(i) < fst h.data.(parent) then begin
        heap_swap h i parent;
        heap_up h parent
      end
    end

  let rec heap_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
    if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      heap_swap h i !smallest;
      heap_down h !smallest
    end

  let heap_push h v =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * h.size) (0, 0) in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- v;
    h.size <- h.size + 1;
    heap_up h (h.size - 1)

  let heap_pop h =
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    heap_down h 0;
    top

  (* Duplicates across streams are emitted once. *)
  let union streams =
    let streams = Array.of_list streams in
    let heap = heap_create (Array.length streams) in
    Array.iteri
      (fun i s -> match s () with Some v -> heap_push heap (v, i) | None -> ())
      streams;
    let last = ref (-1) in
    let rec next () =
      if heap.size = 0 then None
      else begin
        let v, i = heap_pop heap in
        (match streams.(i) () with
        | Some v' -> heap_push heap (v', i)
        | None -> ());
        if v = !last then next ()
        else begin
          last := v;
          Some v
        end
      end
    in
    next

  let to_posting s =
    let acc = ref [] in
    let rec go () =
      match s () with
      | Some v ->
          acc := v :: !acc;
          go ()
      | None -> ()
    in
    go ();
    Cbitmap.Posting.of_sorted_array (Array.of_list (List.rev !acc))

  let union_to_posting ss = to_posting (union ss)

  let length s =
    let rec go acc = match s () with Some _ -> go (acc + 1) | None -> acc in
    go 0
end

(** The seed gap decoders over {!Reader} and {!Codes}, and the pull
    streams over the word decoder. *)
module Gap_codec = struct
  let decode_value code r =
    match (code : Cbitmap.Gap_codec.code) with
    | Gamma -> Codes.decode_gamma r
    | Delta -> Codes.decode_delta r
    | Rice k -> Codes.decode_rice r ~k
    | Fibonacci -> Codes.decode_fibonacci r

  let decode_ref ?(code = Cbitmap.Gap_codec.Gamma) r ~count =
    let out = Array.make count 0 in
    let last = ref (-1) in
    for i = 0 to count - 1 do
      let gap = decode_value code r in
      let p = if !last < 0 then gap - 1 else !last + gap in
      out.(i) <- p;
      last := p
    done;
    Cbitmap.Posting.of_sorted_array out

  (* One codeword per pull; [last] continues an existing sequence
     ([-1] for none). *)
  let stream_from ?(code = Cbitmap.Gap_codec.Gamma) d ~count ~last =
    let remaining = ref count in
    let last = ref last in
    fun () ->
      if !remaining <= 0 then None
      else begin
        decr remaining;
        let gap =
          match code with
          | Gamma -> Bitio.Codes.decode_gamma d
          | Delta -> Bitio.Codes.decode_delta d
          | Rice k -> Bitio.Codes.decode_rice d ~k
          | Fibonacci -> Bitio.Codes.decode_fibonacci d
        in
        let p = if !last < 0 then gap - 1 else !last + gap in
        last := p;
        Some p
      end

  let stream ?code d ~count = stream_from ?code d ~count ~last:(-1)
end

(** Chunked container payloads as a pull stream, one slice decoded at
    a time. *)
module Container = struct
  let stream_chunked ~universe ~chunk d =
    if universe < 1 || chunk < 1 then invalid_arg "Oracle.Container";
    let cur = ref [||] and idx = ref 0 and base = ref 0 in
    let rec next () =
      if !idx < Array.length !cur then begin
        let v = !cur.(!idx) in
        incr idx;
        Some v
      end
      else if !base >= universe then None
      else begin
        let n = min chunk (universe - !base) in
        cur := Cbitmap.Container.decode_add ~n ~base:!base d;
        idx := 0;
        base := !base + n;
        next ()
      end
    in
    next
end

(** Twin-device parity of a gap-coded {!Indexing.Stream_table}, and
    its range union by interleaved merge. *)
module Stream_table = struct
  module St = Indexing.Stream_table

  let stream_of_extent ~code ~(layout : St.layout) (e : St.extent) =
    let d = Iosim.Device.decoder (St.device e.table) ~pos:e.pos in
    match layout with
    | Hybrid { universe; chunk } -> Container.stream_chunked ~universe ~chunk d
    | Gap -> Gap_codec.stream ~code d ~count:e.count

  (* One extent through a fresh arena, and so a fresh decoder: the
     reference for an arena that reads many extents. *)
  let decode e =
    let a = St.Arena.create () in
    St.Arena.union a [ St.Arena.read a e ]

  (* Stream [i]: its directory entry, then its payload. *)
  let read_one t i = decode (St.extent t i)

  (* The union of streams [lo..hi]: every directory entry first, then
     each extent decoded whole. *)
  let read_union t ~lo ~hi =
    Cbitmap.Posting.union_many (List.map decode (St.extents t ~lo ~hi))

  (* [read_union] as it was before whole-extent decode, for a table
     built with [code] and [layout]: the same directory pass, then every
     extent pulled one element at a time through {!Merge}, interleaved
     across the range. *)
  let merge_union ~code ~layout t ~lo ~hi =
    Merge.union_to_posting
      (List.map (stream_of_extent ~code ~layout) (St.extents t ~lo ~hi))

  (* Lay [postings] out as a [Gap] table on two fresh devices from
     [make_device], and decode every stream from a cold pool: on one
     with [read_one], on the other with its per-bit twin — the same
     counted directory read ([Stream_table.count] reads the entry
     [read_one] reads), then the payload through {!Device.cursor}
     and the seed codec.  The payload positions are looked up before
     the counters are reset.  Returns whether every answer agrees, and
     the word path's and the oracle's stats. *)
  let twin_decode ~code ~make_device postings =
    let cold () =
      let dev = make_device () in
      let t = Indexing.Stream_table.build ~code dev postings in
      (t, dev)
    in
    let tw, dw = cold () and tr, dr = cold () in
    let pos =
      Array.init (Array.length postings) (fun i ->
          fst (Indexing.Stream_table.payload_span tr ~lo:i ~hi:i))
    in
    List.iter
      (fun d ->
        Iosim.Device.clear_pool d;
        Iosim.Device.reset_stats d)
      [ dw; dr ];
    let agree = ref true in
    Array.iteri
      (fun i pos ->
        let w = read_one tw i in
        let count = Indexing.Stream_table.count tr i in
        let o = Gap_codec.decode_ref ~code (Device.cursor dr ~pos) ~count in
        if not (Cbitmap.Posting.equal w o) then agree := false)
      pos;
    ( !agree,
      Iosim.Stats.snapshot (Iosim.Device.stats dw),
      Iosim.Stats.snapshot (Iosim.Device.stats dr) )

  (* The word path charges what a per-bit reader charges: the same
     blocks read, seeks and bits, field for field.  The one exception
     is [pool_hits]: the per-bit reader touches a resident block once
     per read call, the word path once per codeword (or block run), so
     the oracle's count is at least the word path's.  Returns the
     fields that break this rule ([[]] when the stats agree). *)
  let stats_mismatches ~word ~oracle =
    List.filter_map
      (fun (name, get, _) ->
        let ok =
          if name = "pool_hits" then get oracle >= get word
          else get oracle = get word
        in
        if ok then None else Some name)
      Iosim.Stats.fields
end

(* The WAL store as it answered and compacted before shadowing moved
   to a position bitmap: the same overlay, flushes and level cascade as
   [Wal.Store] (no log, no retries), with [query] and [merge] doing
   posting set algebra run by run and reading every stream through a
   fresh decoder.  A twin of a [Wal.Store] on an equal device must see
   the same answers, counters and bytes. *)
module Wal_store = struct
  module Posting = Cbitmap.Posting
  module St = Indexing.Stream_table

  (* Newest-first shadowed union, one [Posting.diff]/[union] per stream
     and run. *)
  let merge ?layout device runs =
    match runs with
    | [] -> invalid_arg "Oracle.Wal_store.merge: empty"
    | first :: _ ->
        let sigma = Wal.Run.sigma first in
        let chars = Array.make sigma Posting.empty in
        let dead = ref Posting.empty in
        let shadow = ref Posting.empty in
        let seen = ref Posting.empty in
        List.iter
          (fun r ->
            for ch = 0 to sigma - 1 do
              chars.(ch) <-
                Posting.union chars.(ch)
                  (Posting.diff (Wal.Run.posting r ch) !shadow)
            done;
            dead :=
              Posting.union !dead (Posting.diff (Wal.Run.tombstones r) !shadow);
            let w = Wal.Run.written r in
            shadow := Posting.union !shadow w;
            seen := Posting.union !seen w)
          runs;
        Wal.Run.build ?layout device ~sigma ~chars ~tombstones:!dead
          ~written:!seen

  type t = {
    config : Wal.Store.config;
    sigma : int;
    device : Iosim.Device.t;
    base : Wal.Run.t;
    mutable levels : Wal.Run.t list array;  (* newest first within a level *)
    overlay : (int, int) Hashtbl.t;  (* position -> char; [sigma] deletes *)
    mutable n : int;
    mutable delta_ops : int;
  }

  let layout_of (config : Wal.Store.config) ~n =
    match config.payload with
    | Wal.Store.Gap -> St.Gap
    | Wal.Store.Hybrid { chunk } -> St.Hybrid { universe = max n 1; chunk }

  let create ~index_device config ~sigma ~data =
    let n = Array.length data in
    let base =
      Wal.Run.build
        ~layout:(layout_of config ~n)
        index_device ~sigma
        ~chars:(Indexing.Common.positions_by_char ~sigma data)
        ~tombstones:Posting.empty ~written:Posting.empty
    in
    {
      config;
      sigma;
      device = index_device;
      base;
      levels = [||];
      overlay = Hashtbl.create 64;
      n;
      delta_ops = 0;
    }

  let runs_newest_first t = List.concat (Array.to_list t.levels)

  (* Every overfull level merges into the next, sweeping up from 0. *)
  let cascade t =
    let layout = layout_of t.config ~n:t.n in
    let i = ref 0 in
    while !i < Array.length t.levels do
      if List.length t.levels.(!i) >= t.config.fanout then begin
        if !i + 1 = Array.length t.levels then
          t.levels <- Array.append t.levels [| [] |];
        let merged = merge ~layout t.device t.levels.(!i) in
        t.levels.(!i) <- [];
        t.levels.(!i + 1) <- merged :: t.levels.(!i + 1)
      end;
      incr i
    done

  let flush t =
    if t.delta_ops > 0 then begin
      let chars = Array.make t.sigma [] and dead = ref [] and written = ref [] in
      Hashtbl.iter
        (fun pos ch ->
          written := pos :: !written;
          if ch = t.sigma then dead := pos :: !dead
          else chars.(ch) <- pos :: chars.(ch))
        t.overlay;
      let run =
        Wal.Run.build
          ~layout:(layout_of t.config ~n:t.n)
          t.device ~sigma:t.sigma
          ~chars:(Array.map Posting.of_list chars)
          ~tombstones:(Posting.of_list !dead)
          ~written:(Posting.of_list !written)
      in
      Hashtbl.reset t.overlay;
      t.delta_ops <- 0;
      if Array.length t.levels = 0 then t.levels <- [| [] |];
      t.levels.(0) <- run :: t.levels.(0);
      cascade t
    end

  let update_batch t ops =
    List.iter
      (fun op ->
        (match op with
        | Wal.Op.Set { pos; ch } -> Hashtbl.replace t.overlay pos ch
        | Wal.Op.Append { ch } ->
            Hashtbl.replace t.overlay t.n ch;
            t.n <- t.n + 1
        | Wal.Op.Delete { pos } -> Hashtbl.replace t.overlay pos t.sigma);
        t.delta_ops <- t.delta_ops + 1;
        if t.delta_ops >= t.config.flush_threshold then flush t)
      ops

  (* Delta, then runs, then base: each run's matches
     ([Stream_table.read_union])
     diffed against the union of the newer written sets. *)
  let query t ~lo ~hi =
    match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
    | None -> Posting.empty
    | Some (lo, hi) ->
        let result =
          ref
            (Posting.of_list
               (Hashtbl.fold
                  (fun pos ch acc -> if ch >= lo && ch <= hi then pos :: acc else acc)
                  t.overlay []))
        in
        let shadow =
          ref (Posting.of_list (Hashtbl.fold (fun pos _ acc -> pos :: acc) t.overlay []))
        in
        List.iter
          (fun run ->
            result :=
              Posting.union !result
                (Posting.diff
                   (Stream_table.read_union (Wal.Run.table run) ~lo ~hi)
                   !shadow);
            shadow := Posting.union !shadow (Wal.Run.written run))
          (runs_newest_first t);
        Posting.union !result
          (Posting.diff
             (Stream_table.read_union (Wal.Run.table t.base) ~lo ~hi)
             !shadow)
end

(* The planner's plan choice as it costed before each probed column's
   costs were computed once per query: [enumerate] re-derives every
   other column's options for each driver, and [eval] re-costs the
   driver's exact decode for every combination.
   [Planner.Plan.choose] must return a bit-identical plan: the same
   shape, [considered] and estimates. *)
module Plan = struct
  open Planner.Plan

  (* A column as planning sees it: its plan entry plus the per-range
     cardinalities the directory probes returned ([zs] aligned with
     [info.ranges], [z] their sum). *)
  type probed = { info : col_info; zs : int list; z : int }

  (* Charged directory probes for every effective column (two A-array
     reads per range), in normalized column order. *)
  let probe_columns table (nq : Planner.Ast.normal) =
    List.map
      (fun (column, ranges) ->
        let idx = Ridint.Table.col_index table column in
        let zs =
          List.map
            (fun (lo, hi) ->
              let s, e = Secidx.Static_index.entry_bounds idx ~lo ~hi in
              e - s)
            ranges
        in
        let z = List.fold_left ( + ) 0 zs in
        { info = { column; ranges; z = Some z }; zs; z })
      nq.columns

  (* ε grid for the prefilter decision: coarse enough to keep the
     enumeration tiny, wide enough that the verification-vs-hashed-bits
     tradeoff has somewhere to move. *)
  let eps_grid = [ 0.5; 0.1; 0.01 ]

  (* Exact decode of a whole column: one plan per range (batched at
     execution time, but the payload volume estimate is additive). *)
  let exact_col_io cost p =
    List.fold_left (fun acc z -> acc +. Planner.Cost.exact_ios cost ~z) 0.0 p.zs

  type opt = { action : action; io : float }

  (* Candidate-set survival ratio of a non-driver step, under
     independence: exact intersection keeps sel; a prefilter keeps sel
     plus an ε false-positive share of the rest; a residual column does
     not reduce candidates before verification at all. *)
  let survival ~sel = function
    | Exact_inter -> sel
    | Prefilter { epsilon } -> sel +. (epsilon *. (1.0 -. sel))
    | Residual -> 1.0

  let col_options cost table p =
    let base =
      [
        { action = Exact_inter; io = exact_col_io cost p };
        { action = Residual; io = 0.0 };
      ]
    in
    match Ridint.Table.col_approx table p.info.column with
    | None -> base
    | Some a ->
        let k = Secidx.Approx_index.k a in
        let prefilters =
          List.map
            (fun epsilon ->
              let io =
                List.fold_left
                  (fun acc z ->
                    let l = Secidx.Approx_index.level a ~epsilon ~z in
                    if l > k then acc +. Planner.Cost.exact_ios cost ~z
                    else acc +. Planner.Cost.prefilter_ios cost ~level:l ~z)
                  0.0 p.zs
              in
              { action = Prefilter { epsilon }; io })
            eps_grid
        in
        prefilters @ base

  (* Full cost of one (driver, per-column action) assignment. *)
  let eval cost ~probe_io driver combo =
    let n = float_of_int cost.Planner.Cost.n in
    let io = ref (probe_io +. exact_col_io cost driver) in
    let cand = ref (float_of_int driver.z) in
    let result = ref (float_of_int driver.z) in
    let needs_verify = ref false in
    List.iter
      (fun (p, o) ->
        let sel = float_of_int p.z /. n in
        io := !io +. o.io;
        result := !result *. sel;
        cand := !cand *. survival ~sel o.action;
        match o.action with Exact_inter -> () | _ -> needs_verify := true)
      combo;
    let est_verify = if !needs_verify then !cand else 0.0 in
    io := !io +. Planner.Cost.verify_ios cost ~rows:est_verify;
    (!io, !result, est_verify)

  let rec product = function
    | [] -> [ [] ]
    | opts :: rest ->
        let tails = product rest in
        List.concat_map (fun o -> List.map (fun t -> o :: t) tails) opts

  (* Beyond the exhaustive cap, one pass of coordinate descent: score
     each column's options with every other column held at exact
     intersection, keep the per-column winners as the single combo. *)
  let greedy cost ~probe_io driver others opts =
    let considered = ref 0 in
    let combo =
      List.map2
        (fun p opts ->
          let rest =
            List.filter_map
              (fun q ->
                if q.info.column = p.info.column then None
                else Some (q, { action = Exact_inter; io = exact_col_io cost q }))
              others
          in
          let best =
            List.fold_left
              (fun acc o ->
                incr considered;
                let io, _, _ = eval cost ~probe_io driver ((p, o) :: rest) in
                match acc with
                | Some (_, best_io) when best_io <= io -> acc
                | _ -> Some (o, io))
              None opts
          in
          (p, fst (Option.get best)))
        others opts
    in
    (combo, !considered)

  let enumerate cost table probed kind =
    let probe_io =
      Planner.Cost.probe_ios cost
        ~ranges:(List.fold_left (fun a p -> a + List.length p.zs) 0 probed)
    in
    let considered = ref 0 in
    let best = ref None in
    List.iter
      (fun driver ->
        let others =
          List.filter (fun p -> p.info.column <> driver.info.column) probed
        in
        let opts = List.map (col_options cost table) others in
        let combos =
          let size = List.fold_left (fun a o -> a * List.length o) 1 opts in
          if size <= 512 then (
            let cs = product opts in
            considered := !considered + List.length cs;
            List.map (fun c -> List.combine others c) cs)
          else
            let combo, c = greedy cost ~probe_io driver others opts in
            considered := !considered + c + 1;
            [ combo ]
        in
        List.iter
          (fun combo ->
            let io, result, verify = eval cost ~probe_io driver combo in
            match !best with
            | Some (_, _, _, _, best_io) when best_io <= io -> ()
            | _ -> best := Some (driver, combo, result, verify, io))
          combos)
      probed;
    let driver, combo, est_result, est_verify, est_ios = Option.get !best in
    (* Execution order: candidate-reducing steps first (most selective
       leading), residual checks at verification time. *)
    let filters, residuals =
      List.partition (fun (_, o) -> o.action <> Residual) combo
    in
    let filters = List.sort (fun (a, _) (b, _) -> compare a.z b.z) filters in
    let steps =
      List.map
        (fun (p, o) -> { info = p.info; action = o.action })
        (filters @ residuals)
    in
    {
      shape = Scan { driver = driver.info; decode = Exact; steps };
      kind;
      est_result;
      est_verify;
      est_ios;
      considered = !considered;
    }

  (* A plan with nothing left to cost: every estimate [est]. *)
  let bare ?(est = 0.0) ~considered kind shape =
    { shape; kind; est_result = est; est_verify = est; est_ios = est; considered }

  let choose cost table (nq : Planner.Ast.normal) =
    let kind = nq.kind in
    if nq.empty then bare ~considered:1 kind Const_empty
    else
      match (probe_columns table nq, kind) with
      | [], _ ->
          {
            (bare ~considered:1 kind All_rows) with
            est_result = float_of_int (Ridint.Table.rows table);
          }
      | [ p ], Planner.Ast.Count ->
          {
            (bare ~considered:1 kind
               (Count_directory { column = p.info.column; count = p.z }))
            with
            est_result = float_of_int p.z;
            est_ios = Planner.Cost.probe_ios cost ~ranges:(List.length p.zs);
          }
      | probed, _ -> enumerate cost table probed kind
end

(* The weight-balanced tree's stored postings as they were derived
   before [Secidx.Wbb.store_levels] built each level in one
   position-order pass: the entries computed from the string by a
   stable sort of its positions by character, every stored node's entry
   range copied out of them and sorted, and [Secidx.Approx_index]'s
   hashed copies as a list of hash values sorted and deduplicated by
   [Posting.of_list].  [Secidx.Wbb.store_levels] must hand [store] the
   same postings, and a build through them must leave the same device
   bits. *)
module Wbb = struct
  module W = Secidx.Wbb

  (* Entry [i]'s position: the string's positions ordered by
     (character, position). *)
  let entries x =
    let e = Array.init (Array.length x) Fun.id in
    Array.stable_sort (fun a b -> compare x.(a) x.(b)) e;
    e

  let positions entries (v : W.node) =
    let arr = Array.sub entries v.W.s (W.weight v) in
    Array.sort compare arr;
    Cbitmap.Posting.of_sorted_array arr

  let store_levels (t : W.t) x ~levels store =
    let positions = positions (entries x) in
    let mat = Array.make (t.W.height + 1) false in
    List.iter (fun l -> mat.(l) <- true) levels;
    let level_store =
      Array.init (t.W.height + 1) (fun l ->
          if
            l >= 1 && mat.(l) && Array.length t.W.internal_by_level.(l - 1) > 0
          then Some (store (Array.map positions t.W.internal_by_level.(l - 1)))
          else None)
    in
    let leaf_store = store (Array.map positions t.W.leaves) in
    (mat, level_store, leaf_store)

  let hash_posting fam p =
    Cbitmap.Posting.of_list
      (Cbitmap.Posting.fold
         (fun acc v -> Hashing.Universal.Split.hash fam v :: acc)
         [] p)
end
