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
  ]
