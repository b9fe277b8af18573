(* PR 3 integrity suite: CRC vectors, frame verify/repair, stale
   decoders, decode budgets on crafted malformed streams, the fault
   plan (torn writes, transient reads, bit flips), and the end-to-end
   property that a verified query is never silently wrong. *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(block_bits = 256) ?(mem_blocks = 128) () =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

let raises_corrupt f =
  match f () with exception Secidx_error.Corrupt _ -> true | _ -> false

let raises_io f =
  match f () with exception Secidx_error.IO_error _ -> true | _ -> false

(* --- CRC-32 --- *)

let test_crc_vector () =
  Alcotest.(check int)
    "check vector" 0xCBF43926
    (Bitio.Crc.of_string "123456789");
  (* The bitwise variant agrees with the byte variant on whole bytes. *)
  let buf = Bitio.Bitbuf.create () in
  String.iter
    (fun c -> Bitio.Bitbuf.write_bits buf ~width:8 (Char.code c))
    "123456789";
  Alcotest.(check int) "bitbuf agrees" 0xCBF43926 (Bitio.Crc.of_bitbuf buf)

(* The whole-byte loops against the chunk-at-a-time reference: every
   start bit in two bytes (both byte alignments of the 8-byte slicing
   step are covered by the byte start) and every length up to 300,
   fresh and chained from a running CRC. *)
let prop_crc_matches_reference =
  QCheck.Test.make ~count:12 ~name:"Crc.of_bits = chunk reference, every pos mod 8, len 0-300"
    QCheck.(
      make
        ~print:(fun (d, crc) ->
          Printf.sprintf "crc=%x data=%s" crc
            (String.concat ""
               (List.map
                  (fun c -> Printf.sprintf "%02x" (Char.code c))
                  (List.of_seq (Bytes.to_seq d)))))
        Gen.(
          pair
            (string_size ~gen:char (return 60) >|= Bytes.of_string)
            (int_range 0 0xFFFFFFFF)))
    (fun (data, crc) ->
      let ok = ref true in
      for pos = 0 to 15 do
        for len = 0 to 300 do
          if
            Bitio.Crc.of_bits data ~pos ~len
            <> Oracle.Crc.of_bits data ~pos ~len
            || Bitio.Crc.of_bits ~crc data ~pos ~len
               <> Oracle.Crc.of_bits ~crc data ~pos ~len
          then ok := false
        done
      done;
      !ok)

(* --- frame seal / verify / repair --- *)

let test_frame_verify_repair () =
  let dev = device () in
  let make_payload () =
    let b = Bitio.Bitbuf.create () in
    for i = 0 to 99 do
      Bitio.Bitbuf.write_bits b ~width:10 ((i * 7) land 0x3FF)
    done;
    b
  in
  let f =
    Iosim.Frame.store dev ~magic:0xF00D ~rebuild:make_payload (make_payload ())
  in
  Alcotest.(check bool) "fresh frame verifies" true (Iosim.Frame.verify f);
  (* Corrupt the payload behind the frame's back. *)
  let r = Iosim.Frame.payload f in
  let off = r.Iosim.Device.off in
  let v = Iosim.Device.read_bits dev ~pos:off ~width:8 in
  Iosim.Device.write_bits dev ~pos:off ~width:8 (v lxor 0xFF);
  Alcotest.(check bool) "corruption detected" false (Iosim.Frame.verify f);
  Alcotest.(check bool)
    "detection counted" true
    ((Iosim.Device.stats dev).Iosim.Stats.faults_detected >= 1);
  Iosim.Frame.repair f;
  Alcotest.(check bool) "repaired frame verifies" true (Iosim.Frame.verify f);
  Alcotest.(check int) "payload restored" 0
    (Iosim.Device.read_bits dev ~pos:off ~width:10);
  (* In-place mutators: invalidate opens the trust window, the next
     verify reseals instead of flagging. *)
  Iosim.Device.write_bits dev ~pos:off ~width:10 0x155;
  Iosim.Frame.invalidate f;
  Alcotest.(check bool) "dirty frame resealed" true (Iosim.Frame.verify f);
  Alcotest.(check bool) "reseal sticks" true (Iosim.Frame.verify f)

let test_frame_seal_from_image () =
  (* Sealing from the writer's in-memory image: corruption that lands
     between the write and a lazy seal must not be blessed in. *)
  let dev = device () in
  let bb = Iosim.Device.block_bits dev in
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width:32 0xDEADBEEF;
  let img = Iosim.Frame.padded ~len:bb buf in
  let region = Iosim.Device.alloc ~align_block:true dev bb in
  Iosim.Device.write_buf dev region buf;
  (* Latent corruption before the (lazy) seal. *)
  let v = Iosim.Device.read_bits dev ~pos:region.Iosim.Device.off ~width:4 in
  Iosim.Device.write_bits dev ~pos:region.Iosim.Device.off ~width:4 (v lxor 0xF);
  let f =
    Iosim.Frame.seal dev ~magic:0xF00E ~rebuild:(fun () -> img) ~image:img
      region
  in
  Alcotest.(check bool) "pre-seal damage detected" false (Iosim.Frame.verify f);
  Iosim.Frame.repair f;
  Alcotest.(check bool) "repaired" true (Iosim.Frame.verify f);
  Alcotest.(check int) "image restored" 0xDEADBEEF
    (Iosim.Device.read_bits dev ~pos:region.Iosim.Device.off ~width:32)

(* --- stale decoder regression --- *)

let test_stale_decoder () =
  let dev = device () in
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width:16 0xBEEF;
  let r = Iosim.Device.store dev buf in
  let d = Iosim.Device.decoder dev ~pos:r.Iosim.Device.off in
  Alcotest.(check int) "reads before mutation" 0xBE (Bitio.Decoder.read_bits d 8);
  ignore (Iosim.Device.alloc dev 64);
  let stale =
    match Bitio.Decoder.read_bits d 8 with
    | exception Secidx_error.Stale_decoder _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "snapshot refused after alloc" true stale;
  (* A decoder opened after the mutation works. *)
  let d2 = Iosim.Device.decoder dev ~pos:r.Iosim.Device.off in
  Alcotest.(check int) "fresh decoder fine" 0xBEEF (Bitio.Decoder.read_bits d2 16)

(* --- decode budgets on malformed streams --- *)

let test_decode_budgets () =
  (* Gamma: a zero run longer than any codeword fitting the 62-bit
     word bound is typed corruption. *)
  let b = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits b ~width:62 0;
  Bitio.Bitbuf.write_bits b ~width:62 max_int;
  Alcotest.(check bool) "gamma run budget" true
    (raises_corrupt (fun () ->
         Bitio.Codes.decode_gamma (Bitio.Decoder.of_bitbuf b)));
  (* Delta: a length prefix of 62 cannot head a word-sized mantissa. *)
  let b = Bitio.Bitbuf.create () in
  Bitio.Codes.encode_gamma b 63;
  Bitio.Bitbuf.write_bits b ~width:62 0;
  Alcotest.(check bool) "delta length prefix" true
    (raises_corrupt (fun () ->
         Bitio.Codes.decode_delta (Bitio.Decoder.of_bitbuf b)));
  (* Rice with k = 60: any quotient above 3 overflows the word. *)
  let b = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits b ~width:9 0b111111110;
  Bitio.Bitbuf.write_bits b ~width:60 0;
  Alcotest.(check bool) "rice quotient overflow" true
    (raises_corrupt (fun () ->
         Bitio.Codes.decode_rice (Bitio.Decoder.of_bitbuf b) ~k:60));
  (* Fibonacci: a zero run past the table means the term index cannot
     fit the word bound. *)
  let b = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits b ~width:62 0;
  Bitio.Bitbuf.write_bits b ~width:62 0;
  Bitio.Bitbuf.write_bits b ~width:2 0b11;
  Alcotest.(check bool) "fibonacci term bound" true
    (raises_corrupt (fun () ->
         Bitio.Codes.decode_fibonacci (Bitio.Decoder.of_bitbuf b)));
  (* Sanity: the naive reference paths enforce the same budgets. *)
  let b = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits b ~width:62 0;
  Bitio.Bitbuf.write_bits b ~width:62 max_int;
  let reader = Oracle.Reader.of_bitbuf b in
  Alcotest.(check bool) "naive gamma run budget" true
    (raises_corrupt (fun () -> Oracle.Codes.decode_gamma reader))

(* --- fault plan: torn writes --- *)

let test_torn_write () =
  let dev = device () in
  let bb = Iosim.Device.block_bits dev in
  let plan = Iosim.Fault.create () in
  Iosim.Device.set_fault dev plan;
  Iosim.Fault.arm_torn_write plan ~nth:1 ~keep_blocks:1;
  let buf = Bitio.Bitbuf.create () in
  for _ = 1 to 2 * bb / 31 do
    Bitio.Bitbuf.write_bits buf ~width:31 0x7FFFFFFF
  done;
  let r = Iosim.Device.alloc ~align_block:true dev (2 * bb) in
  Iosim.Device.write_buf dev r buf;
  Iosim.Device.clear_fault dev;
  Alcotest.(check int) "first block landed" 0xFFFF
    (Iosim.Device.read_bits dev ~pos:r.Iosim.Device.off ~width:16);
  Alcotest.(check int) "second block torn" 0
    (Iosim.Device.read_bits dev ~pos:(r.Iosim.Device.off + bb) ~width:16);
  Alcotest.(check bool) "tear counted" true
    ((Iosim.Device.stats dev).Iosim.Stats.faults_injected >= 1)

(* --- fault plan: transient reads + bounded retry --- *)

let test_transient_read_retry () =
  let dev = device () in
  let bb = Iosim.Device.block_bits dev in
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width:32 0xCAFEF00D;
  let r = Iosim.Device.store ~align_block:true dev buf in
  Iosim.Device.clear_pool dev;
  let plan = Iosim.Fault.create () in
  Iosim.Device.set_fault dev plan;
  Iosim.Fault.arm_transient_read plan
    ~block:(r.Iosim.Device.off / bb)
    ~failures:2;
  Alcotest.(check bool) "bare read fails" true
    (raises_io (fun () ->
         Iosim.Device.read_bits dev ~pos:r.Iosim.Device.off ~width:32));
  (* One armed failure left: with_retries absorbs it and succeeds. *)
  let v =
    Iosim.Device.with_retries ~attempts:3 dev (fun () ->
        Iosim.Device.read_bits dev ~pos:r.Iosim.Device.off ~width:32)
  in
  Alcotest.(check int) "retry succeeds" 0xCAFEF00D v;
  Alcotest.(check bool) "retry counted" true
    ((Iosim.Device.stats dev).Iosim.Stats.retries >= 1);
  (* Exhausted budget propagates the failure. *)
  Iosim.Device.clear_pool dev;
  Iosim.Fault.arm_transient_read plan
    ~block:(r.Iosim.Device.off / bb)
    ~failures:5;
  Alcotest.(check bool) "budget exhausted propagates" true
    (raises_io (fun () ->
         Iosim.Device.with_retries ~attempts:3 dev (fun () ->
             Iosim.Device.read_bits dev ~pos:r.Iosim.Device.off ~width:32)))

(* --- fault plan: seeded bit flips --- *)

let test_bit_flips_deterministic () =
  let mk () =
    let dev = device () in
    ignore (Iosim.Device.alloc dev 4096);
    dev
  in
  let d1 = mk () and d2 = mk () in
  let f1 = Iosim.Device.inject_bit_flips d1 ~seed:42 ~count:5 in
  let f2 = Iosim.Device.inject_bit_flips d2 ~seed:42 ~count:5 in
  Alcotest.(check (list int)) "same seed, same flips" f1 f2;
  Alcotest.(check int) "five flips" 5 (List.length f1);
  Alcotest.(check int) "flips counted" 5
    (Iosim.Device.stats d1).Iosim.Stats.faults_injected;
  let f3 = Iosim.Device.inject_bit_flips (mk ()) ~seed:43 ~count:5 in
  Alcotest.(check bool) "different seed differs" true (f1 <> f3)

(* --- end-to-end: verified_query is never silently wrong --- *)

let all_builders = Test_robustness.all_builders

let outcome_matches ~reference ~n outcome =
  match (outcome : Indexing.Instance.outcome) with
  | Indexing.Instance.Ok a | Indexing.Instance.Repaired (a, _) ->
      Cbitmap.Posting.equal (Indexing.Answer.to_posting ~n a) reference
  | Indexing.Instance.Corrupt _ -> true

let prop_flips_never_silently_wrong =
  QCheck.Test.make ~count:24
    ~name:"bit flips: verified_query detects, repairs or answers right"
    QCheck.(
      make
        ~print:(fun (sigma, data, seed) ->
          Printf.sprintf "sigma=%d n=%d seed=%d" sigma (Array.length data)
            seed)
        Gen.(
          int_range 2 8 >>= fun sigma ->
          int_range 4 80 >>= fun n ->
          array_size (return n) (int_range 0 (sigma - 1)) >>= fun data ->
          int_range 1 1_000_000 >>= fun seed -> return (sigma, data, seed)))
    (fun (sigma, data, seed) ->
      let n = Array.length data in
      List.for_all
        (fun build ->
          let dev = device () in
          let inst : Indexing.Instance.t = build dev ~sigma data in
          ignore (Iosim.Device.inject_bit_flips dev ~seed ~count:3);
          List.for_all
            (fun (lo, hi) ->
              let reference =
                Workload.Queries.naive_answer
                  { Workload.Gen.sigma; data }
                  { Workload.Queries.lo; hi }
              in
              outcome_matches ~reference ~n
                (Indexing.Instance.verified_query inst ~lo ~hi))
            [ (0, sigma - 1); (sigma / 2, sigma - 1); (0, 0) ])
        all_builders)

(* --- repair from the string: every stream-table extent --- *)

(* Flip one bit of each directory and payload extent of [tables] (its
   first, middle and last bit, one flip at a time): the scrub must
   find exactly that extent, [verified_query] must repair it and
   answer right, and the repair must restore the device bit for bit.
   The tables keep no postings, so each repair re-derives them from
   the string; a wrong derivation fails the frame's length check
   ([Corrupt]), the answer or the device image. *)
let check_repairs_from_string what (inst : Indexing.Instance.t) data tables =
  let dev = inst.Indexing.Instance.device in
  let integrity = Option.get inst.Indexing.Instance.integrity in
  (* Seal what appends left dirty, so a clean device scrubs to 0. *)
  ignore (integrity.Indexing.Integrity.scrub ());
  let image () =
    Iosim.Device.raw_crc32 dev ~pos:0 ~len:(Iosim.Device.used_bits dev)
  in
  let clean = image () in
  let sigma = inst.Indexing.Instance.sigma in
  let lo = sigma / 3 and hi = sigma - 1 in
  let reference =
    Workload.Queries.naive_answer { Workload.Gen.sigma; data }
      { Workload.Queries.lo; hi }
  in
  let flips = ref 0 in
  List.iteri
    (fun i tab ->
      List.iter
        (fun (r : Iosim.Device.region) ->
          let off = r.Iosim.Device.off and len = r.Iosim.Device.len in
          List.iter
            (fun pos ->
              let where = Printf.sprintf "%s: table %d, bit %d" what i pos in
              let bit = Iosim.Device.read_bits dev ~pos ~width:1 in
              Iosim.Device.write_bits dev ~pos ~width:1 (1 - bit);
              incr flips;
              Alcotest.(check int) (where ^ ": scrub finds it") 1
                (integrity.Indexing.Integrity.scrub ());
              (match Indexing.Instance.verified_query inst ~lo ~hi with
              | Indexing.Instance.Repaired (a, _) ->
                  if
                    not
                      (Cbitmap.Posting.equal
                         (Indexing.Answer.to_posting ~n:(Array.length data) a)
                         reference)
                  then Alcotest.failf "%s: wrong answer after repair" where
              | Indexing.Instance.Ok _ ->
                  Alcotest.failf "%s: not repaired" where
              | Indexing.Instance.Corrupt msg ->
                  Alcotest.failf "%s: Corrupt (%s)" where msg);
              Alcotest.(check int)
                (where ^ ": device restored")
                clean (image ()))
            (if len = 0 then []
             else
               List.sort_uniq compare [ off; off + (len / 2); off + len - 1 ]))
        (Indexing.Stream_table.regions tab))
    tables;
  if !flips = 0 then Alcotest.failf "%s: no extent flipped" what

let test_repair_from_string () =
  let sigma = 24 and n = 500 in
  let data =
    (Workload.Gen.zipf ~seed:7 ~n ~sigma ~theta:1.0 ()).Workload.Gen.data
  in
  let more k = Array.init k (fun i -> (i * 7) mod sigma) in
  List.iter
    (fun (name, schedule) ->
      let t =
        Secidx.Static_index.build ~c:4 ~schedule (device ()) ~sigma data
      in
      let tree = Secidx.Static_index.tree t in
      let levels =
        List.filter
          (fun l -> Array.length tree.Secidx.Wbb.internal_by_level.(l - 1) > 0)
          (Secidx.Static_index.materialized_levels t)
      in
      check_repairs_from_string ("static " ^ name)
        (Secidx.Static_index.instance_of t)
        data
        (List.map
           (fun l -> Secidx.Static_index.table t (`Level l))
           levels
        @ [ Secidx.Static_index.table t `Leaf ]))
    [ ("doubling", `Doubling); ("all", `All); ("leaves-only", `Leaves_only) ];
  (* Appends after the build: chain blocks beside the base tables,
     buffered appends still pending, and a doubling rebuild whose new
     tables come from the string's first [n] characters. *)
  List.iter
    (fun (name, buffered, appends) ->
      let t =
        Secidx.Append_index.build ~c:4 ~buffered (device ()) ~sigma data
      in
      Array.iter (Secidx.Append_index.append t) appends;
      if name = "rebuilt" && Secidx.Append_index.rebuilds t = 0 then
        Alcotest.fail "append: no rebuild";
      check_repairs_from_string ("append " ^ name)
        (Secidx.Append_index.instance_of t)
        (Array.append data appends)
        (Secidx.Append_index.tables t))
    [
      ("unbuffered", false, more 40);
      ("buffered", true, more 7);
      ("rebuilt", false, more (n + 30));
    ];
  List.iter
    (fun schedule ->
      let t = Secidx.Alphabet_tree.build ~schedule (device ()) ~sigma data in
      check_repairs_from_string "alphabet tree"
        (Secidx.Alphabet_tree.instance_of t)
        data (Secidx.Alphabet_tree.tables t))
    [ `All; `Doubling ];
  let t = Baselines.Cbitmap_index.build (device ()) ~sigma data in
  check_repairs_from_string "bitmap-compressed"
    (Baselines.Cbitmap_index.instance_of t)
    data
    [ Baselines.Cbitmap_index.table t ]

(* --- what a build leaves in memory --- *)

(* Live heap words per position that a build leaves after a
   compaction: the index (held through [Sys.opaque_identity]) and
   whatever it keeps of the string, which is made inside the build so
   that only the index can hold it; the device, the simulated disk, is
   not counted.  Zipf(1) over sigma = 1024, n = 2^16, c = 8. *)
let live_words_per_position build =
  let n = 1 lsl 16 and sigma = 1024 in
  let dev = device ~block_bits:1024 ~mem_blocks:256 () in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words - Obj.reachable_words (Obj.repr dev)
  in
  let string () =
    (Workload.Gen.zipf ~seed:1 ~n ~sigma ~theta:1.0 ()).Workload.Gen.data
  in
  let before = live () in
  let t = Sys.opaque_identity (build dev ~sigma (string ())) in
  let after = live () in
  ignore (Sys.opaque_identity t);
  float_of_int (after - before) /. float_of_int n

(* Each bound is the value measured when the tree indexes stopped
   keeping their postings and entry arrays; before, the same builds
   left 8.76 (static), 11.26 (append), 16.36 (dynamic) and 16.39
   (approx) words per position. *)
let test_build_live_words () =
  let check name bound build =
    let w =
      live_words_per_position (fun d ~sigma x -> Obj.repr (build d ~sigma x))
    in
    Printf.printf "%s: %.2f live words per position\n" name w;
    if w > bound then
      Alcotest.failf "%s build leaves %.2f live words per position (> %.2f)"
        name w bound
  in
  check "static" 3.60 (fun d ~sigma x -> Secidx.Static_index.build d ~sigma x);
  check "append" 4.70 (fun d ~sigma x -> Secidx.Append_index.build d ~sigma x);
  check "dynamic" 13.85 (fun d ~sigma x ->
      Secidx.Dynamic_index.build d ~sigma x);
  check "approx" 3.60 (fun d ~sigma x -> Secidx.Approx_index.build d ~sigma x)

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc_vector;
    qcheck prop_crc_matches_reference;
    Alcotest.test_case "frame verify and repair" `Quick
      test_frame_verify_repair;
    Alcotest.test_case "frame sealed from image" `Quick
      test_frame_seal_from_image;
    Alcotest.test_case "stale decoder refused" `Quick test_stale_decoder;
    Alcotest.test_case "decode budgets" `Quick test_decode_budgets;
    Alcotest.test_case "torn write" `Quick test_torn_write;
    Alcotest.test_case "transient read retry" `Quick
      test_transient_read_retry;
    Alcotest.test_case "seeded bit flips" `Quick test_bit_flips_deterministic;
    qcheck prop_flips_never_silently_wrong;
    Alcotest.test_case "every stream-table extent repairs from the string"
      `Quick test_repair_from_string;
    Alcotest.test_case "live words a build leaves" `Quick test_build_live_words;
  ]
