(* Wall-clock microbenchmarks of the bit engine (BENCH_PR1.json) and
   the codec engine (BENCH_PR2.json), each against the per-bit oracle
   implementations as the baseline.  Smoke mode shrinks the workload
   for CI. *)

open Common

type wc_result = { wc_name : string; ns_per_item : float; items : int }

let wc_json results =
  (* [results] is newest-first; emit oldest-first like the console. *)
  J.List
    (List.rev_map
       (fun r ->
         J.Obj
           [
             ("name", J.String r.wc_name);
             ("ns_per_item", J.Float r.ns_per_item);
             ("items_per_run", J.Int r.items);
           ])
       results)

let speedups_json speedups =
  J.Obj (List.map (fun (name, s) -> (name, J.Float s)) speedups)

(* [record name ~items f] times [f] with [time], prints the result,
   keeps it (newest first) in [results] and returns its ns/item. *)
let recorder time ~iters =
  let results = ref [] in
  let record wc_name ~items f =
    let ns_per_item = time ~iters ~items f in
    results := { wc_name; ns_per_item; items } :: !results;
    fmt "%-34s %10.2f ns/item\n%!" wc_name ns_per_item;
    ns_per_item
  in
  (results, record)

(* Bit-engine hot paths: Bitbuf reads, writes and appends, device
   region reads, rank/select, and one end-to-end E2 query. *)
let bit_engine ~smoke =
  let results, record =
    recorder time_per_item ~iters:(if smoke then 3 else 40)
  in
  let sink = ref 0 in
  let rng = Hashing.Universal.Rng.create ~seed:42 in
  let nbits = 1 lsl 17 in
  let buf = Bitio.Bitbuf.create ~capacity:nbits () in
  while Bitio.Bitbuf.length buf < nbits do
    Bitio.Bitbuf.write_bits buf ~width:30 (Hashing.Universal.Rng.below rng (1 lsl 30))
  done;
  let reads = 4096 in
  let naive_read_bits b ~pos ~width =
    let v = ref 0 in
    for i = pos to pos + width - 1 do
      v := (!v lsl 1) lor (if Bitio.Bitbuf.get_bit b i then 1 else 0)
    done;
    !v
  in
  (* Bitbuf reads, aligned (byte-aligned start) and unaligned, at the
     width range the codes actually use, including the 61/62 extreme. *)
  let read_bench ~aligned ~naive width =
    let pos i =
      if aligned then i * 64 mod (nbits - 64)
      else ((i * 61) + 3) mod (nbits - 64)
    in
    fun () ->
      for i = 0 to reads - 1 do
        sink := !sink
          lxor
          (if naive then naive_read_bits buf ~pos:(pos i) ~width
           else Bitio.Bitbuf.read_bits buf ~pos:(pos i) ~width)
      done
  in
  List.iter
    (fun w ->
      ignore
        (record (Printf.sprintf "bitbuf_read_aligned_w%d" w) ~items:reads
           (read_bench ~aligned:true ~naive:false w));
      ignore
        (record (Printf.sprintf "bitbuf_read_unaligned_w%d" w) ~items:reads
           (read_bench ~aligned:false ~naive:false w)))
    [ 1; 8; 13; 31; 62 ];
  let find name = (List.find (fun r -> r.wc_name = name) !results).ns_per_item in
  let read_new = find "bitbuf_read_unaligned_w31" in
  let read_naive =
    record "bitbuf_read_unaligned_w31_naive" ~items:reads
      (read_bench ~aligned:false ~naive:true 31)
  in
  (* Bitbuf writes: width 8 stays byte-aligned, width 13 never does. *)
  let writes = 4096 in
  let write_bench ~width ~naive () =
    let b = Bitio.Bitbuf.create ~capacity:(writes * width) () in
    for i = 0 to writes - 1 do
      let v = i land ((1 lsl width) - 1) in
      if naive then
        for j = width - 1 downto 0 do
          Bitio.Bitbuf.write_bit b ((v lsr j) land 1 = 1)
        done
      else Bitio.Bitbuf.write_bits b ~width v
    done;
    sink := !sink lxor Bitio.Bitbuf.length b
  in
  ignore (record "bitbuf_write_aligned_w8" ~items:writes (write_bench ~width:8 ~naive:false));
  ignore (record "bitbuf_write_unaligned_w13" ~items:writes (write_bench ~width:13 ~naive:false));
  ignore (record "bitbuf_write_unaligned_w13_naive" ~items:writes (write_bench ~width:13 ~naive:true));
  (* Unaligned append: 3-bit prefix forces the non-byte-aligned path
     that used to fall back to a write_bit/get_bit round-trip per bit. *)
  let chunk = Bitio.Bitbuf.create ~capacity:4101 () in
  while Bitio.Bitbuf.length chunk < 4101 do
    Bitio.Bitbuf.write_bits chunk ~width:27 (Hashing.Universal.Rng.below rng (1 lsl 27))
  done;
  let append_bench ~naive () =
    let dst = Bitio.Bitbuf.create ~capacity:(16 * 4104) () in
    Bitio.Bitbuf.write_bits dst ~width:3 0b101;
    for _ = 1 to 16 do
      if naive then
        for i = 0 to Bitio.Bitbuf.length chunk - 1 do
          Bitio.Bitbuf.write_bit dst (Bitio.Bitbuf.get_bit chunk i)
        done
      else Bitio.Bitbuf.append dst chunk
    done;
    sink := !sink lxor Bitio.Bitbuf.length dst
  in
  let append_items = 16 * Bitio.Bitbuf.length chunk in
  let append_new = record "bitbuf_append_unaligned" ~items:append_items (append_bench ~naive:false) in
  let append_naive =
    record "bitbuf_append_unaligned_naive" ~items:append_items (append_bench ~naive:true)
  in
  (* Device region read at an unaligned offset: bulk blit vs the
     per-bit oracle (one one-bit charge per spanned block, then one bit
     at a time through an uncharged decoder snapshot). *)
  let dev = device ~block_bits:1024 ~mem_blocks:0 () in
  ignore (Iosim.Device.alloc dev 11);
  let region = Iosim.Device.store dev buf in
  let region_bench ~naive () =
    let b =
      if naive then Oracle.Device.read_region_naive dev region
      else Iosim.Device.read_region dev region
    in
    sink := !sink lxor Bitio.Bitbuf.length b
  in
  let region_new = record "device_read_region" ~items:nbits (region_bench ~naive:false) in
  let region_naive =
    record "device_read_region_naive" ~items:nbits (region_bench ~naive:true)
  in
  (* Rank/select throughput on a random bitvector. *)
  let rs = Cbitmap.Rank_select.of_bitbuf buf in
  let rank_ops = 4096 in
  ignore
    (record "rank_select_rank1" ~items:rank_ops (fun () ->
         for i = 0 to rank_ops - 1 do
           sink := !sink lxor Cbitmap.Rank_select.rank1 rs (i * 31 mod nbits)
         done));
  let total_ones = Cbitmap.Rank_select.ones rs in
  ignore
    (record "rank_select_select1" ~items:rank_ops (fun () ->
         for i = 0 to rank_ops - 1 do
           sink := !sink lxor Cbitmap.Rank_select.select1 rs (i * 17 mod total_ones)
         done));
  (* One end-to-end E2 query so the trajectory has a macro number. *)
  let n = 16384 and sigma = 256 in
  let g = Workload.Gen.zipf ~seed:20 ~n ~sigma ~theta:1.0 () in
  let inst = Secidx.Static_index.instance (device ()) ~sigma g.Workload.Gen.data in
  ignore
    (record "e2_static_query_cold" ~items:1 (fun () ->
         let answers, _ =
           Indexing.Instance.run inst ~pool:`Cold [| (16, 47) |]
         in
         let answer = answers.(0) in
         sink := !sink lxor Indexing.Answer.compressed_bits answer));
  (* Speedups the acceptance gate cares about. *)
  let speedups =
    [
      ("bitbuf_read_unaligned", read_naive /. read_new);
      ("bitbuf_append_unaligned", append_naive /. append_new);
      ("device_read_region", region_naive /. region_new);
    ]
  in
  fmt "\nspeedup vs per-bit oracle:\n";
  List.iter (fun (name, s) -> fmt "  %-28s %6.1fx\n" name s) speedups;
  write_artifact ~pr:1 ~label:"word-at-a-time bit engine" ~smoke
    ~note:(Printf.sprintf " (sink=%d)" (!sink land 1))
    [
      ("benchmarks", wc_json !results);
      ("speedup_vs_naive", speedups_json speedups);
    ]

(* The buffered codec engine.  Sequential gap decode/encode
   throughput of the cached Decoder + CLZ codes against the per-bit
   oracle, the build path the encoder serves (stored levels through
   [Stream_table.build], and the CRC-32 seal alone), an end-to-end
   Theorem 2 cold query, and an I/O-counter parity check: the E2
   string's gap-coded extents decoded by the engine and by the oracle
   on twin devices.  Emits BENCH_PR2.json and exits non-zero when the
   gamma decode or gamma encode speedup gate or the parity check
   fails. *)
let codec_engine ~smoke =
  header "codec-engine wall-clock microbenchmarks (PR 2)";
  let results, record =
    recorder time_per_item_best ~iters:(if smoke then 3 else 25)
  in
  let sink = ref 0 in
  let count = if smoke then 20_000 else 200_000 in
  let values = gap_values ~count in
  let posting = Cbitmap.Posting.of_sorted_array values in
  let out = Array.make count 0 in
  let decode_speedup name code =
    let buf = Cbitmap.Gap_codec.to_buf ~code posting in
    let engine =
      record (name ^ "_decode_engine") ~items:count (fun () ->
          let d = Bitio.Decoder.of_bitbuf buf in
          Cbitmap.Gap_codec.decode_into ~code d ~count out;
          sink := !sink lxor out.(count - 1))
    in
    let perbit =
      record (name ^ "_decode_perbit") ~items:count (fun () ->
          let r = Oracle.Reader.of_bitbuf buf in
          let last = ref (-1) in
          for i = 0 to count - 1 do
            let gap = Oracle.Gap_codec.decode_value code r in
            let p = if !last < 0 then gap - 1 else !last + gap in
            Array.unsafe_set out i p;
            last := p
          done;
          sink := !sink lxor out.(count - 1))
    in
    perbit /. engine
  in
  let gamma_speedup = decode_speedup "gamma" Cbitmap.Gap_codec.Gamma in
  let delta_speedup = decode_speedup "delta" Cbitmap.Gap_codec.Delta in
  let rice_speedup = decode_speedup "rice_k4" (Cbitmap.Gap_codec.Rice 4) in
  (* Word-level gamma encoder vs the per-bit reference encoder. *)
  let gaps = Array.make count 0 in
  let last = ref (-1) in
  for i = 0 to count - 1 do
    gaps.(i) <- (if !last < 0 then values.(i) + 1 else values.(i) - !last);
    last := values.(i)
  done;
  let enc_engine =
    record "gamma_encode_engine" ~items:count (fun () ->
        let b = Bitio.Bitbuf.create ~capacity:(count * 16) () in
        for i = 0 to count - 1 do
          Bitio.Codes.encode_gamma b (Array.unsafe_get gaps i)
        done;
        sink := !sink lxor Bitio.Bitbuf.length b)
  in
  let enc_naive =
    record "gamma_encode_perbit" ~items:count (fun () ->
        let b = Bitio.Bitbuf.create ~capacity:(count * 16) () in
        for i = 0 to count - 1 do
          Oracle.Codes.encode_gamma b (Array.unsafe_get gaps i)
        done;
        sink := !sink lxor Bitio.Bitbuf.length b)
  in
  let encode_speedup = enc_naive /. enc_engine in
  (* The build path the encoder serves: every stored level of a
     Theorem 2 tree over a Zipf string, gap-coded and framed onto a
     fresh device ([Stream_table.build]: encode, copy, CRC seal), per
     stored position; and the seal's CRC-32 alone, per byte. *)
  let levels =
    let n = if smoke then 1 lsl 14 else 1 lsl 17 and sigma = 1024 in
    let x = (Workload.Gen.zipf ~seed:21 ~n ~sigma ~theta:1.0 ()).Workload.Gen.data in
    let tree = Secidx.Wbb.build ~c:8 ~sigma x in
    let _, stored, leaves =
      Secidx.Wbb.store_levels tree x
        ~levels:(Secidx.Wbb.doubling_levels tree.Secidx.Wbb.height)
        Fun.id
    in
    leaves :: List.filter_map Fun.id (Array.to_list stored)
  in
  let stored_positions =
    List.fold_left
      (fun acc ps ->
        Array.fold_left (fun acc p -> acc + Cbitmap.Posting.cardinal p) acc ps)
      0 levels
  in
  ignore
    (record "stream_table_build" ~items:stored_positions (fun () ->
         let dev = device () in
         List.iter
           (fun ps -> ignore (Indexing.Stream_table.build dev ps))
           levels;
         sink := !sink lxor Iosim.Device.used_bits dev));
  let crc_buf = Cbitmap.Gap_codec.to_buf posting in
  ignore
    (record "crc32" ~items:((Bitio.Bitbuf.length crc_buf + 7) / 8) (fun () ->
         sink := !sink lxor Bitio.Crc.of_bitbuf crc_buf));
  (* Counter parity: every per-character extent of the E2 string,
     decoded by the engine and by the per-bit oracle on twin devices,
     gives the same answers and the same stats (see
     [Oracle.Stream_table.stats_mismatches]) — the engine buys
     wall-clock time, not different I/O. *)
  let n = if smoke then 8192 else 65536 and sigma = 256 in
  let g = Workload.Gen.zipf ~seed:20 ~n ~sigma ~theta:1.0 () in
  let stats_parity =
    let agree, word, oracle =
      Oracle.Stream_table.twin_decode ~code:Cbitmap.Gap_codec.Gamma
        ~make_device:device
        (Indexing.Common.positions_by_char ~sigma g.Workload.Gen.data)
    in
    agree && Oracle.Stream_table.stats_mismatches ~word ~oracle = []
  in
  fmt "e2 extent decode I/O-counter parity (engine vs oracle): %s\n"
    (if stats_parity then "ok" else "MISMATCH");
  let inst = Secidx.Static_index.instance (device ()) ~sigma g.Workload.Gen.data in
  ignore
    (record "e2_cold_query_engine" ~items:1 (fun () ->
         let answers, _ =
           Indexing.Instance.run inst ~pool:`Cold [| (16, 47) |]
         in
         let answer = answers.(0) in
         sink := !sink lxor Indexing.Answer.compressed_bits answer));
  let speedups =
    [
      ("gamma_decode", gamma_speedup);
      ("delta_decode", delta_speedup);
      ("rice_k4_decode", rice_speedup);
      ("gamma_encode", encode_speedup);
    ]
  in
  fmt "\nspeedup vs per-bit oracle:\n";
  List.iter (fun (name, s) -> fmt "  %-28s %6.1fx\n" name s) speedups;
  let gate_min = if smoke then 1.0 else 4.0 in
  let encode_min = if smoke then 1.0 else 2.5 in
  let gate_pass =
    gamma_speedup >= gate_min && encode_speedup >= encode_min && stats_parity
  in
  write_artifact ~pr:2 ~label:"word-at-a-time codec engine" ~smoke
    ~note:(Printf.sprintf " (sink=%d)" (!sink land 1))
    ~gate:
      ( gate_pass,
        Printf.sprintf
          "gamma decode %.2fx (min %.2fx), gamma encode %.2fx (min %.2fx), \
           parity=%b"
          gamma_speedup gate_min encode_speedup encode_min stats_parity )
    [
      ("benchmarks", wc_json !results);
      ("speedup_vs_reference", speedups_json speedups);
      ( "gate",
        J.Obj
          [
            ("metric", J.String "gamma_decode_speedup");
            ("min", J.Float gate_min);
            ("value", J.Float gamma_speedup);
            ("stats_parity", J.Bool stats_parity);
            ( "encode",
              J.Obj
                [
                  ("metric", J.String "gamma_encode_speedup");
                  ("min", J.Float encode_min);
                  ("value", J.Float encode_speedup);
                ] );
            ("pass", J.Bool gate_pass);
          ] );
    ]

let run ~smoke =
  bit_engine ~smoke;
  codec_engine ~smoke
