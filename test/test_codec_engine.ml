(* Differential tests for the PR 2 codec engine: the buffered
   word-at-a-time [Bitio.Decoder] + CLZ-based [Bitio.Codes] decode
   paths and word-level encoders, pinned against the retained per-bit
   reference ([Oracle.Codes] over the closure [Reader]) for all
   five codes, across widths 1–62, unaligned start positions and
   refill-boundary cases. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Bitops.msb ----------------------------------------------------- *)

let prop_msb_matches_naive =
  QCheck.Test.make ~count:2000 ~name:"Bitops.msb = Naive.msb"
    QCheck.(
      oneof
        [
          int;
          int_range 0 1024;
          always 0;
          always 1;
          always max_int;
          always min_int;
          always (-1);
        ])
    (fun x -> Bitio.Bitops.msb x = Oracle.Bitops.msb x)

(* --- decoder primitives --------------------------------------------- *)

let test_peek_consume () =
  let buf = Bitio.Bitbuf.of_int ~width:20 0xabcde in
  let d = Bitio.Decoder.of_bitbuf buf in
  Alcotest.(check int) "peek 8" 0xab (Bitio.Decoder.peek d 8);
  Alcotest.(check int) "peek does not advance" 0xab (Bitio.Decoder.peek d 8);
  Alcotest.(check int) "wider peek" 0xabc (Bitio.Decoder.peek d 12);
  Alcotest.(check int) "pos still 0" 0 (Bitio.Decoder.bit_pos d);
  Bitio.Decoder.consume d 4;
  Alcotest.(check int) "pos after consume" 4 (Bitio.Decoder.bit_pos d);
  Alcotest.(check int) "peek after consume" 0xbc (Bitio.Decoder.peek d 8);
  Alcotest.(check int) "read rest" 0xbcde (Bitio.Decoder.read_bits d 16);
  Alcotest.(check int) "remaining" 0 (Bitio.Decoder.remaining d);
  Bitio.Decoder.seek d 8;
  Alcotest.(check int) "after seek" 0xcd (Bitio.Decoder.read_bits d 8);
  Bitio.Decoder.skip d 1;
  Alcotest.(check int) "after skip" 0b110 (Bitio.Decoder.read_bits d 3)

let test_decoder_errors () =
  let buf = Bitio.Bitbuf.of_int ~width:16 0xffff in
  let d = Bitio.Decoder.of_bitbuf buf in
  Alcotest.check_raises "width > 62"
    (Invalid_argument "Decoder.read_bits: width") (fun () ->
      ignore (Bitio.Decoder.read_bits d 63));
  Alcotest.check_raises "past end"
    (Invalid_argument "Decoder.read_bits: past end") (fun () ->
      ignore (Bitio.Decoder.read_bits d 17));
  Alcotest.check_raises "seek out of range" (Invalid_argument "Decoder.seek")
    (fun () -> Bitio.Decoder.seek d 17);
  ignore (Bitio.Decoder.read_bits d 16);
  Alcotest.check_raises "exhausted"
    (Invalid_argument "Decoder.read_bits: past end") (fun () ->
      ignore (Bitio.Decoder.read_bits d 1));
  (* A one-run that hits the limit before its terminating zero. *)
  let d2 = Bitio.Decoder.of_bitbuf buf in
  Alcotest.check_raises "unterminated run"
    (Invalid_argument "Decoder: unterminated run") (fun () ->
      ignore (Bitio.Decoder.one_run d2))

let test_runs_across_windows () =
  (* Runs longer than the 62-bit cache window force mid-run refills. *)
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width:62 0;
  Bitio.Bitbuf.write_bits buf ~width:62 0;
  Bitio.Bitbuf.write_bits buf ~width:26 0;
  Bitio.Bitbuf.write_bit buf true;
  Bitio.Bitbuf.write_bits buf ~width:62 max_int;
  Bitio.Bitbuf.write_bits buf ~width:8 0xff;
  Bitio.Bitbuf.write_bit buf false;
  let d = Bitio.Decoder.of_bitbuf buf in
  Alcotest.(check int) "zero run 150" 150 (Bitio.Decoder.zero_run d);
  Alcotest.(check int) "one run 70" 70 (Bitio.Decoder.one_run d);
  Alcotest.(check int) "fully consumed" 0 (Bitio.Decoder.remaining d)

let test_final_partial_byte () =
  (* Decoding from raw bytes with an explicit bit limit inside the
     last byte: the value ends exactly at the limit and the padding
     bits beyond it are unreachable. *)
  let buf = Bitio.Bitbuf.create () in
  Bitio.Codes.encode_gamma buf 1000;
  let bits = Bitio.Bitbuf.length buf in
  Alcotest.(check int) "19-bit codeword" 19 bits;
  let d = Bitio.Decoder.of_bytes ~limit:bits (Bitio.Bitbuf.to_bytes buf) in
  Alcotest.(check int) "decodes" 1000 (Bitio.Codes.decode_gamma d);
  Alcotest.(check int) "nothing left" 0 (Bitio.Decoder.remaining d);
  Alcotest.check_raises "padding unreachable"
    (Invalid_argument "Decoder.read_bits: past end") (fun () ->
      ignore (Bitio.Decoder.read_bits d 1))

(* --- per-code differential properties ------------------------------- *)

let junk_prefix buf j =
  for i = 0 to j - 1 do
    Bitio.Bitbuf.write_bit buf (i land 1 = 1)
  done

(* For each code: (a) the word-level encoder emits bit-identical
   output to the per-bit reference encoder, and (b) the buffered
   decoder and the per-bit reference decoder both read the values
   back, starting at an arbitrary (unaligned) bit offset. *)
let diff_prop name value_gen ~encode_new ~encode_naive ~decode_new
    ~decode_naive =
  QCheck.Test.make ~count:400 ~name
    QCheck.(
      pair (int_range 0 70) (list_of_size (Gen.int_range 1 30) value_gen))
    (fun (j, vs) ->
      let a = Bitio.Bitbuf.create () and b = Bitio.Bitbuf.create () in
      junk_prefix a j;
      junk_prefix b j;
      List.iter (encode_new a) vs;
      List.iter (encode_naive b) vs;
      Bitio.Bitbuf.equal a b
      && (let d = Bitio.Decoder.of_bitbuf ~pos:j a in
          List.for_all (fun v -> decode_new d = v) vs)
      &&
      let r = Oracle.Reader.of_bitbuf ~pos:j a in
      List.for_all (fun v -> decode_naive r = v) vs)

(* Magnitudes chosen so codewords regularly straddle the 62-bit cache
   edge: gamma of a value near 2^55 is 111 bits long. *)
let pos_value_gen =
  QCheck.oneof
    [
      QCheck.int_range 1 16;
      QCheck.int_range 1 (1 lsl 20);
      QCheck.int_range (1 lsl 40) (1 lsl 55);
    ]

let prop_gamma_diff =
  diff_prop "gamma: engine = per-bit reference" pos_value_gen
    ~encode_new:Bitio.Codes.encode_gamma
    ~encode_naive:Oracle.Codes.encode_gamma
    ~decode_new:Bitio.Codes.decode_gamma
    ~decode_naive:Oracle.Codes.decode_gamma

let prop_delta_diff =
  diff_prop "delta: engine = per-bit reference" pos_value_gen
    ~encode_new:Bitio.Codes.encode_delta
    ~encode_naive:Oracle.Codes.encode_delta
    ~decode_new:Bitio.Codes.decode_delta
    ~decode_naive:Oracle.Codes.decode_delta

let prop_unary_diff =
  diff_prop "unary: engine = per-bit reference (runs past one chunk)"
    (QCheck.oneof [ QCheck.int_range 0 10; QCheck.int_range 50 300 ])
    ~encode_new:Bitio.Codes.encode_unary
    ~encode_naive:Oracle.Codes.encode_unary
    ~decode_new:Bitio.Codes.decode_unary
    ~decode_naive:Oracle.Codes.decode_unary

let prop_rice_diff =
  QCheck.Test.make ~count:400 ~name:"rice k=0..10: engine = per-bit reference"
    QCheck.(
      triple (int_range 0 70) (int_range 0 10)
        (list_of_size (Gen.int_range 1 30)
           (pair (int_range 0 2000) (int_range 0 (1 lsl 30)))))
    (fun (j, k, qs) ->
      (* Build values from a bounded unary quotient plus a k-bit
         remainder, so small k cannot explode the codeword length. *)
      let vs = List.map (fun (q, r) -> (q lsl k) lor (r land ((1 lsl k) - 1))) qs in
      let a = Bitio.Bitbuf.create () and b = Bitio.Bitbuf.create () in
      junk_prefix a j;
      junk_prefix b j;
      List.iter (Bitio.Codes.encode_rice a ~k) vs;
      List.iter (Oracle.Codes.encode_rice b ~k) vs;
      Bitio.Bitbuf.equal a b
      && (let d = Bitio.Decoder.of_bitbuf ~pos:j a in
          List.for_all (fun v -> Bitio.Codes.decode_rice d ~k = v) vs)
      &&
      let r = Oracle.Reader.of_bitbuf ~pos:j a in
      List.for_all (fun v -> Oracle.Codes.decode_rice r ~k = v) vs)

let prop_fixed_diff =
  QCheck.Test.make ~count:400
    ~name:"fixed widths 1..62: engine = per-bit reference"
    QCheck.(
      triple (int_range 0 70) (int_range 1 62)
        (list_of_size (Gen.int_range 1 25) (int_range 0 max_int)))
    (fun (j, w, vs) ->
      let vs = List.map (fun v -> v land ((1 lsl w) - 1)) vs in
      let buf = Bitio.Bitbuf.create () in
      junk_prefix buf j;
      List.iter (Bitio.Codes.encode_fixed buf ~width:w) vs;
      (let d = Bitio.Decoder.of_bitbuf ~pos:j buf in
       List.for_all (fun v -> Bitio.Codes.decode_fixed d ~width:w = v) vs)
      &&
      let r = Oracle.Reader.of_bitbuf ~pos:j buf in
      List.for_all (fun v -> Oracle.Codes.decode_fixed r ~width:w = v) vs)

let prop_fibonacci_diff =
  diff_prop "fibonacci: engine = per-bit reference"
    (QCheck.oneof [ QCheck.int_range 1 1000; QCheck.int_range 1 (1 lsl 40) ])
    ~encode_new:Bitio.Codes.encode_fibonacci
    ~encode_naive:Oracle.Codes.encode_fibonacci
    ~decode_new:Bitio.Codes.decode_fibonacci
    ~decode_naive:Oracle.Codes.decode_fibonacci

let test_fibonacci_wide_codewords () =
  (* Codewords longer than the 62-bit cache: v = F(k) has a single
     Zeckendorf term, so its codeword is k zeros, a one and the
     terminator — exercising the chunked zero emitter and the
     multi-window zero-run scan. *)
  let fibv n =
    let a = ref 1 and b = ref 2 in
    for _ = 1 to n do
      let c = !a + !b in
      a := !b;
      b := c
    done;
    !a
  in
  let vs = [ fibv 80; fibv 80 + 1; fibv 75 + fibv 20 + 3; fibv 84 ] in
  let a = Bitio.Bitbuf.create () and b = Bitio.Bitbuf.create () in
  List.iter (Bitio.Codes.encode_fibonacci a) vs;
  List.iter (Oracle.Codes.encode_fibonacci b) vs;
  Alcotest.(check bool) "encoders agree" true (Bitio.Bitbuf.equal a b);
  Alcotest.(check int) "F(80) codeword is 82 bits" 82
    (Bitio.Codes.fibonacci_size (fibv 80));
  let d = Bitio.Decoder.of_bitbuf a in
  List.iter
    (fun v ->
      Alcotest.(check int) "roundtrip" v (Bitio.Codes.decode_fibonacci d))
    vs

(* --- Reader.of_bytes (satellite fix) -------------------------------- *)

(* The word decoder over raw bytes ([Bitio.Decoder.of_bytes]) and the
   oracle's closure reader (on [Bitio.Bitops.get_bits]) both agree with
   per-bit assembly. *)

let prop_reader_of_bytes_diff =
  QCheck.Test.make ~count:500
    ~name:"Reader.of_bytes = per-bit assembly at any width/alignment"
    QCheck.(
      make
        Gen.(
          map Bytes.of_string (string_size ~gen:char (return 200))
          >>= fun data ->
          int_range 0 300 >>= fun pos0 ->
          list_size (int_range 1 20) (int_range 0 62) >>= fun widths ->
          return (data, pos0, widths)))
    (fun (data, pos0, widths) ->
      let total = List.fold_left ( + ) 0 widths in
      QCheck.assume (pos0 + total <= 8 * Bytes.length data);
      let r = Oracle.Reader.of_bytes ~pos:pos0 data in
      let d = Bitio.Decoder.of_bytes ~pos:pos0 data in
      let p = ref pos0 in
      List.for_all
        (fun w ->
          let expect = Oracle.Bitops.get_bits data ~pos:!p ~width:w in
          let got = r.Oracle.Reader.read_bits w in
          let got_d = Bitio.Decoder.read_bits d w in
          p := !p + w;
          got = expect && got_d = expect)
        widths)

(* --- bulk gap decode ------------------------------------------------ *)

let prop_bulk_decode_agree =
  QCheck.Test.make ~count:300
    ~name:"decode_into = decode = stream = per-bit decode_ref"
    QCheck.(pair (int_range 0 3) (list (int_range 0 200_000)))
    (fun (codei, xs) ->
      let code =
        match codei with
        | 0 -> Cbitmap.Gap_codec.Gamma
        | 1 -> Cbitmap.Gap_codec.Delta
        | 2 -> Cbitmap.Gap_codec.Rice 4
        | _ -> Cbitmap.Gap_codec.Fibonacci
      in
      let p = Cbitmap.Posting.of_list xs in
      let count = Cbitmap.Posting.cardinal p in
      let buf = Bitio.Bitbuf.create () in
      Cbitmap.Gap_codec.encode ~code buf p;
      let out = Array.make (count + 3) (-7) in
      Cbitmap.Gap_codec.decode_into ~code
        (Bitio.Decoder.of_bitbuf buf)
        ~count out;
      let by_into = Array.sub out 0 count in
      let by_decode =
        Cbitmap.Posting.to_array
          (Cbitmap.Gap_codec.decode ~code (Bitio.Decoder.of_bitbuf buf) ~count)
      in
      let by_stream =
        Cbitmap.Posting.to_array
          (Oracle.Merge.to_posting
             (Oracle.Gap_codec.stream ~code
                (Bitio.Decoder.of_bitbuf buf)
                ~count))
      in
      let by_ref =
        Cbitmap.Posting.to_array
          (Oracle.Gap_codec.decode_ref ~code
             (Oracle.Reader.of_bitbuf buf)
             ~count)
      in
      by_into = by_decode && by_decode = by_stream && by_stream = by_ref
      && out.(count) = -7)

let test_decode_into_continuation () =
  let buf = Bitio.Bitbuf.create () in
  let values = [ 10; 11; 50 ] in
  let last = ref 9 in
  List.iter
    (fun p ->
      Cbitmap.Gap_codec.encode_append ~last:!last buf p;
      last := p)
    values;
  let out = Array.make 3 0 in
  Cbitmap.Gap_codec.decode_into ~last:9 (Bitio.Decoder.of_bitbuf buf) ~count:3
    out;
  Alcotest.(check (array int)) "continues from last" [| 10; 11; 50 |] out;
  Alcotest.check_raises "count exceeds out"
    (Invalid_argument "Gap_codec.decode_into") (fun () ->
      Cbitmap.Gap_codec.decode_into (Bitio.Decoder.of_bitbuf buf) ~count:4 out)

(* --- block-run charging ------------------------------------------ *)

(* The bulk gamma kernel charges a counted decoder in block runs; the
   pull stream ([Oracle.Gap_codec.stream], one [Decoder.gamma] per codeword)
   charges every codeword as it is consumed.  Twin devices A and B
   store the same extent and take the same pool warm-up, prefetch,
   fault plan and corruption; A decodes with [Gap_codec.decode], B
   with the stream, and every observable of the simulator must agree:
   the answer or the exception, every [Stats] field, the pool's
   counters and occupancy, and the [iosim_*] metric deltas. *)

type run_case = {
  gaps : int list;  (** gamma values, so positions are prefix sums - 1 *)
  lead : int;  (** bits allocated before the extent *)
  block_bits : int;
  capacity : int;  (** pool blocks *)
  policy : Iosim.Buffer_pool.policy;
  warm : int list;
      (** bit offsets from the extent's start (mod the space), each read
          twice before the decode: pool state and the re-hit memo *)
  prefetch : bool;  (** prefetch the extent's span first *)
  rewrite : int option;
      (** after the prefetch, write back one extent bit (mod its
          length) unchanged: a write hit leaves the prefetch flag set *)
  fault : (int * int) option;  (** (block offset in the extent, failures) *)
  retry : bool;  (** decode under [with_retries ~attempts:2] *)
  zeros : (int * int) option;  (** (offset, length >= 64) overwritten *)
}

let print_run_case c =
  Printf.sprintf
    "gaps=[%s] lead=%d block_bits=%d capacity=%d policy=%s warm=[%s] \
     prefetch=%b rewrite=%s fault=%s retry=%b zeros=%s"
    (String.concat ";" (List.map string_of_int c.gaps))
    c.lead c.block_bits c.capacity
    (match c.policy with `Lru -> "lru" | `Segmented -> "segmented")
    (String.concat ";" (List.map string_of_int c.warm))
    c.prefetch
    (match c.rewrite with None -> "none" | Some o -> string_of_int o)
    (match c.fault with
    | None -> "none"
    | Some (b, k) -> Printf.sprintf "(%d,%d)" b k)
    c.retry
    (match c.zeros with
    | None -> "none"
    | Some (o, l) -> Printf.sprintf "(%d,%d)" o l)

let gen_run_case =
  let open QCheck.Gen in
  let gap =
    frequency
      [
        (12, int_range 1 24);
        (4, int_range 1 5000);
        (1, int_range (1 lsl 31) ((1 lsl 31) + (1 lsl 20)));
        (1, int_range (1 lsl 40) ((1 lsl 40) + 1000));
      ]
  in
  let* gaps = list_size (int_range 0 300) gap in
  let* lead = int_range 0 200 in
  let* block_bits = map (fun k -> 8 * k) (oneofl [ 1; 2; 3; 5; 8; 16; 33; 128 ]) in
  let* capacity = oneofl [ 0; 1; 2; 64 ] in
  let* policy = oneofl [ `Lru; `Segmented ] in
  let* warm = list_size (int_range 0 3) (int_range 0 600) in
  let* prefetch = bool in
  let* rewrite = opt ~ratio:0.4 (int_range 0 64) in
  let* fault = opt ~ratio:0.3 (pair (int_range 0 6) (int_range 1 3)) in
  let* retry = bool in
  let* zeros = opt ~ratio:0.15 (pair (int_range 0 2000) (int_range 64 130)) in
  return
    {
      gaps;
      lead;
      block_bits;
      capacity;
      policy;
      warm;
      prefetch;
      rewrite;
      fault;
      retry;
      zeros;
    }

let iosim_counters () =
  List.filter_map
    (fun name ->
      if String.length name > 6 && String.sub name 0 6 = "iosim_" then
        Some (name, Obs.Metrics.counter_value (Obs.Metrics.counter name))
      else None)
    (List.sort compare (Obs.Metrics.names ()))

(* The answer, or the exception with [Invalid_argument]'s message cut
   to its kind: the two decoders validate under different names. *)
let outcome f =
  match f () with
  | p -> Ok (Cbitmap.Posting.to_list p)
  | exception Invalid_argument _ -> Error "Invalid_argument"
  | exception Secidx_error.Corrupt m -> Error ("Corrupt " ^ m)
  | exception e -> Error (Printexc.to_string e)

type observed = {
  result : (int list, string) result;
  stats : Iosim.Stats.t;
  pool : Iosim.Buffer_pool.counters;
  occupancy : int;
  protected : int;
  metrics : (string * int) list;  (** iosim_* deltas *)
}

(* Build one twin, apply the case's set-up and run [decode] on the
   extent; [decode dev ~pos ~count] makes its own decoder. *)
let observe c decode =
  let dev =
    Iosim.Device.create ~pool_policy:c.policy ~block_bits:c.block_bits
      ~mem_bits:(c.capacity * c.block_bits) ()
  in
  let positions =
    List.rev
      (snd
         (List.fold_left
            (fun (last, acc) g -> (last + g, (last + g) :: acc))
            (-1, []) c.gaps))
  in
  let posting = Cbitmap.Posting.of_list positions in
  ignore (Iosim.Device.alloc dev c.lead);
  let buf = Cbitmap.Gap_codec.to_buf posting in
  let region = Iosim.Device.store dev buf in
  let pos = region.Iosim.Device.off and len = region.Iosim.Device.len in
  (* the zeroed span, when it fits the extent *)
  let zeros =
    match c.zeros with Some (z, l) when z + l <= len -> Some (z, l) | _ -> None
  in
  (match zeros with
  | Some (z, l) ->
      let at = ref (pos + z) and left = ref l in
      while !left > 0 do
        let w = min 62 !left in
        Iosim.Device.write_bits dev ~pos:!at ~width:w 0;
        at := !at + w;
        left := !left - w
      done
  | None -> ());
  (* start cold, so the prefetch below transfers and flags blocks *)
  Iosim.Device.clear_pool dev;
  let used = Iosim.Device.used_bits dev in
  if used > 0 then
    List.iter
      (fun w ->
        for _ = 1 to 2 do
          ignore (Iosim.Device.read_bits dev ~pos:((pos + w) mod used) ~width:1)
        done)
      c.warm;
  if c.prefetch then Iosim.Device.prefetch dev ~pos ~len;
  (match c.rewrite with
  | Some o when len > 0 ->
      let o = o mod len in
      let bit =
        match zeros with
        | Some (z, l) when z <= o && o < z + l -> 0
        | _ -> Bool.to_int (Bitio.Bitbuf.get_bit buf o)
      in
      Iosim.Device.write_bits dev ~pos:(pos + o) ~width:1 bit
  | _ -> ());
  (match c.fault with
  | Some (b, failures) when len > 0 ->
      let plan = Iosim.Fault.create () in
      let first = pos / c.block_bits and last = (pos + len - 1) / c.block_bits in
      Iosim.Fault.arm_transient_read plan
        ~block:(first + (b mod (last - first + 1)))
        ~failures;
      Iosim.Device.set_fault dev plan
  | _ -> ());
  let count = List.length c.gaps in
  let m0 = iosim_counters () in
  let result =
    outcome (fun () ->
        if c.retry then
          Iosim.Device.with_retries ~attempts:2 dev (fun () ->
              decode dev ~pos ~count)
        else decode dev ~pos ~count)
  in
  let m1 = iosim_counters () in
  let pool = Iosim.Device.pool dev in
  {
    result;
    stats = Iosim.Stats.snapshot (Iosim.Device.stats dev);
    pool = Iosim.Buffer_pool.counters pool;
    occupancy = Iosim.Buffer_pool.occupancy pool;
    protected = Iosim.Buffer_pool.protected_occupancy pool;
    metrics = List.map2 (fun (k, a) (_, b) -> (k, b - a)) m0 m1;
  }

let decode_runs dev ~pos ~count =
  Cbitmap.Gap_codec.decode (Iosim.Device.decoder dev ~pos) ~count

let decode_stream dev ~pos ~count =
  Oracle.Merge.to_posting
    (Oracle.Gap_codec.stream (Iosim.Device.decoder dev ~pos) ~count)

let same_observation a b =
  a.result = b.result
  && Iosim.Stats.equal a.stats b.stats
  && a.pool = b.pool && a.occupancy = b.occupancy && a.protected = b.protected
  && a.metrics = b.metrics

let prop_block_runs_exact =
  QCheck.Test.make ~count:1000 ~long_factor:10
    ~name:"block-run charging = per-codeword charging"
    (QCheck.make ~print:print_run_case gen_run_case)
    (fun c ->
      let a = observe c decode_runs and b = observe c decode_stream in
      if same_observation a b then true
      else
        QCheck.Test.fail_reportf "runs: %a@.stream: %a" Iosim.Stats.pp a.stats
          Iosim.Stats.pp b.stats)

(* A write between [Device.decoder] and the decode makes the first
   charge raise [Stale_decoder] before any counter moves. *)
let test_block_runs_stale () =
  let dev = Iosim.Device.create ~block_bits:64 ~mem_bits:(64 * 8) () in
  let p = Cbitmap.Posting.of_list (List.init 500 (fun i -> 3 * i)) in
  let region = Iosim.Device.store dev (Cbitmap.Gap_codec.to_buf p) in
  let d = Iosim.Device.decoder dev ~pos:region.Iosim.Device.off in
  Iosim.Device.write_bits dev ~pos:0 ~width:1 0;
  let before = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
  let pool_before = Iosim.Buffer_pool.counters (Iosim.Device.pool dev) in
  let m0 = iosim_counters () in
  (match Cbitmap.Gap_codec.decode d ~count:500 with
  | _ -> Alcotest.fail "stale decode returned"
  | exception Secidx_error.Stale_decoder _ -> ());
  Alcotest.(check bool) "no stats moved" true
    (Iosim.Stats.equal before (Iosim.Device.stats dev));
  Alcotest.(check bool) "no pool counter moved" true
    (pool_before = Iosim.Buffer_pool.counters (Iosim.Device.pool dev));
  Alcotest.(check bool) "no metric moved" true (m0 = iosim_counters ())

(* 64 zero bits in the middle of an extent exceed the gamma zero-run
   budget: both decoders raise [Corrupt] and leave the same counters,
   with and without a pool. *)
let test_block_runs_zeroed () =
  let gaps = List.init 2000 (fun i -> 1 + (i * 7 mod 13)) in
  List.iter
    (fun (block_bits, capacity) ->
      let c =
        {
          gaps;
          lead = 5;
          block_bits;
          capacity;
          policy = `Segmented;
          warm = [];
          prefetch = false;
          rewrite = None;
          fault = None;
          retry = false;
          zeros = Some (3000, 64);
        }
      in
      let a = observe c decode_runs and b = observe c decode_stream in
      (match a.result with
      | Error msg when String.length msg > 8 && String.sub msg 0 8 = "Corrupt " -> ()
      | _ -> Alcotest.fail "zeroed extent did not raise Corrupt");
      Alcotest.(check bool)
        (Printf.sprintf "same observation (B=%d, M=%d)" block_bits capacity)
        true (same_observation a b))
    [ (8, 0); (64, 2); (1024, 64) ]

(* --- range union: whole-extent decode against the interleaved merge -- *)

let layouts =
  Cbitmap.Gap_codec.
    [
      ("gamma", Gamma, Indexing.Stream_table.Gap);
      ("delta", Delta, Indexing.Stream_table.Gap);
      ("rice3", Rice 3, Indexing.Stream_table.Gap);
      ("fibonacci", Fibonacci, Indexing.Stream_table.Gap);
      ("hybrid", Gamma, Indexing.Stream_table.Hybrid { universe = 4096; chunk = 512 });
    ]

(* [k] random postings over [0, 4096): each stream draws its own
   density, so a range mixes sparse, dense and empty extents. *)
let gen_union_case =
  let open QCheck.Gen in
  int_range 0 (List.length layouts - 1) >>= fun layout ->
  int_range 1 40 >>= fun k ->
  list_repeat k
    (frequency [ (1, return 0); (4, int_range 1 64); (2, int_range 64 2048) ]
    >>= fun m -> list_repeat m (int_range 0 4095))
  >>= fun lists ->
  int_range 0 (k - 1) >>= fun a ->
  int_range 0 (k - 1) >>= fun b ->
  int_range 2 16 >>= fun pool ->
  return (layout, List.map Cbitmap.Posting.of_list lists, min a b, max a b, pool)

let print_union_case (layout, ps, lo, hi, pool) =
  let name, _, _ = List.nth layouts layout in
  Printf.sprintf "%s k=%d lo=%d hi=%d pool=%d sizes=[%s]" name (List.length ps)
    lo hi pool
    (String.concat ";"
       (List.map (fun p -> string_of_int (Cbitmap.Posting.cardinal p)) ps))

(* The table laid out on a fresh device with a cold pool. *)
let fresh_table ~code ~layout ~pool postings =
  let dev = Iosim.Device.create ~block_bits:256 ~mem_bits:(pool * 256) () in
  let t = Indexing.Stream_table.build ~code ~layout dev (Array.of_list postings) in
  Iosim.Device.clear_pool dev;
  Iosim.Device.reset_stats dev;
  (t, dev)

(* Streams [lo..hi] of [t] as a query reads them: every directory
   entry, then each extent into one arena, then one union. *)
let arena_union t ~lo ~hi =
  let module A = Indexing.Stream_table.Arena in
  let a = A.create () in
  A.union a (List.map (A.read a) (Indexing.Stream_table.extents t ~lo ~hi))

let prop_arena_union_vs_merge =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"arena union = interleaved merge (answer, bits_read)"
    (QCheck.make ~print:print_union_case gen_union_case)
    (fun (layout, ps, lo, hi, pool) ->
      let _, code, layout = List.nth layouts layout in
      let tw, dw = fresh_table ~code ~layout ~pool ps
      and tm, dm = fresh_table ~code ~layout ~pool ps in
      let whole = arena_union tw ~lo ~hi in
      let merged = Oracle.Stream_table.merge_union ~code ~layout tm ~lo ~hi in
      let bits d = (Iosim.Device.stats d).Iosim.Stats.bits_read in
      let expected =
        Cbitmap.Posting.union_many (List.filteri (fun i _ -> i >= lo && i <= hi) ps)
      in
      Cbitmap.Posting.equal whole merged
      && Cbitmap.Posting.equal whole expected
      && bits dw = bits dm)

(* Arena decode allocates the arena's words and the union; the
   interleaved merge allocates an option, a heap tuple and a list cell
   per element on top.  Each extent holds 200 positions and the arena
   doubles as it grows, so all but its first few growths, like both
   paths' whole answers, are too large for the minor heap and count in
   neither path's [minor_words].  On OCaml 5 a domain's [minor_words]
   is an exact count, so the bound cannot flake (its major-heap
   counters move with collection timing). *)
let test_arena_union_allocation () =
  let k = 32 and code = Cbitmap.Gap_codec.Gamma
  and layout = Indexing.Stream_table.Gap in
  let ps =
    List.init k (fun s ->
        Cbitmap.Posting.of_list (List.init 200 (fun i -> (i * 97) + (s * 13))))
  in
  let t, dev = fresh_table ~code ~layout ~pool:64 ps in
  let words f =
    Iosim.Device.clear_pool dev;
    let w0 = Gc.minor_words () in
    let r = f () in
    (Gc.minor_words () -. w0, r)
  in
  let whole_words, whole = words (fun () -> arena_union t ~lo:0 ~hi:(k - 1)) in
  let merge_words, merged =
    words (fun () ->
        Oracle.Stream_table.merge_union ~code ~layout t ~lo:0 ~hi:(k - 1))
  in
  Alcotest.(check bool) "same answer" true (Cbitmap.Posting.equal whole merged);
  if whole_words > merge_words /. 2. then
    Alcotest.failf "arena union allocated %.0f minor words, merge %.0f"
      whole_words merge_words

(* [decode_into ~at] on a counted device decoder: the same positions
   as [decode], written at [at] with the cells around the slice left
   alone, and the same bits read, for each gap code. *)
let prop_decode_into_at =
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"decode_into ~at = decode (positions, bits_read)"
    QCheck.(triple (int_range 0 3) (list (int_range 0 100_000)) (int_range 0 50))
    (fun (codei, xs, at) ->
      let code =
        match codei with
        | 0 -> Cbitmap.Gap_codec.Gamma
        | 1 -> Cbitmap.Gap_codec.Delta
        | 2 -> Cbitmap.Gap_codec.Rice 3
        | _ -> Cbitmap.Gap_codec.Fibonacci
      in
      let p = Cbitmap.Posting.of_list xs in
      let count = Cbitmap.Posting.cardinal p in
      let layout = Indexing.Stream_table.Gap in
      let decoder t =
        let e = Indexing.Stream_table.extent t 0 in
        Iosim.Device.decoder (Indexing.Stream_table.device t)
          ~pos:e.Indexing.Stream_table.pos
      in
      let t1, d1 = fresh_table ~code ~layout ~pool:4 [ p ]
      and t2, d2 = fresh_table ~code ~layout ~pool:4 [ p ] in
      let dec1 = decoder t1 and dec2 = decoder t2 in
      Iosim.Device.reset_stats d1;
      Iosim.Device.reset_stats d2;
      let whole = Cbitmap.Gap_codec.decode ~code dec1 ~count in
      let out = Array.make (at + count + 2) (-7) in
      Cbitmap.Gap_codec.decode_into ~code ~at dec2 ~count out;
      let bits d = (Iosim.Device.stats d).Iosim.Stats.bits_read in
      Array.sub out at count = Cbitmap.Posting.to_array whole
      && Array.for_all (( = ) (-7)) (Array.sub out 0 at)
      && out.(at + count) = -7
      && bits d1 = bits d2)


(* --- one arena against a fresh arena per extent --------------------- *)

(* The streams [idx] (increasing) of [ps], laid out twice on fresh cold
   devices, read once through one arena and once through a fresh arena
   (so a fresh decoder) per extent.  With [interleave] each directory
   entry is read right before its payload, as a merge reads; otherwise
   every entry first, as a query reads.  Returns the two decodes and
   the two devices' stats. *)
let arena_twin ~code ~layout ~pool ~interleave ps idx =
  let module St = Indexing.Stream_table in
  let read arena_for =
    let t, dev = fresh_table ~code ~layout ~pool ps in
    let decode e =
      let a = arena_for () in
      Cbitmap.Posting.to_list (St.Arena.union a [ St.Arena.read a e ])
    in
    let decoded =
      if interleave then List.map (fun i -> decode (St.extent t i)) idx
      else List.map decode (List.map (St.extent t) idx)
    in
    (decoded, Iosim.Stats.snapshot (Iosim.Device.stats dev))
  in
  let shared = St.Arena.create () in
  let a, sa = read (fun () -> shared) in
  let b, sb = read St.Arena.create in
  (a, sa, b, sb)

let gen_arena_case =
  let open QCheck.Gen in
  gen_union_case >>= fun (layout, ps, _, _, pool) ->
  list_repeat (List.length ps) bool >>= fun mask ->
  bool >>= fun interleave ->
  let idx = List.filteri (fun i _ -> List.nth mask i) (List.init (List.length ps) Fun.id) in
  return (layout, ps, idx, pool, interleave)

let print_arena_case (layout, ps, idx, pool, interleave) =
  Printf.sprintf "%s idx=[%s] interleave=%b"
    (print_union_case (layout, ps, 0, 0, pool))
    (String.concat ";" (List.map string_of_int idx))
    interleave

let prop_arena_parity =
  QCheck.Test.make ~count:200 ~long_factor:5
    ~name:"one arena = a fresh arena per extent (positions, stats)"
    (QCheck.make ~print:print_arena_case gen_arena_case)
    (fun (layout, ps, idx, pool, interleave) ->
      let _, code, layout = List.nth layouts layout in
      let a, sa, b, sb = arena_twin ~code ~layout ~pool ~interleave ps idx in
      a = b && Iosim.Stats.equal sa sb)

(* The three shapes an arena meets, each against a fresh arena per
   extent: consecutive extents (no repositioning), every third stream of
   large ones (the decoder seeks past two streams, and the device
   seeks), and a [Hybrid] table (containers decoded whole, then
   copied). *)
let test_arena_cases () =
  let ps =
    List.init 24 (fun s ->
        Cbitmap.Posting.of_list (List.init (50 + (40 * (s mod 5))) (fun i -> (i * 37) + s)))
  in
  let case name ~layout idx =
    let a, sa, b, sb =
      arena_twin ~code:Cbitmap.Gap_codec.Gamma ~layout ~pool:4 ~interleave:false
        ps idx
    in
    Alcotest.(check bool) (name ^ ": positions") true (a = b);
    List.iter
      (fun (field, get, _) ->
        Alcotest.(check int) (name ^ ": " ^ field) (get sb) (get sa))
      Iosim.Stats.fields;
    sa
  in
  let all = List.init 24 Fun.id in
  ignore (case "consecutive" ~layout:Indexing.Stream_table.Gap all);
  let skipped =
    case "skipped" ~layout:Indexing.Stream_table.Gap
      (List.filter (fun i -> i mod 3 = 0) all)
  in
  Alcotest.(check bool) "skipped: the device seeks" true
    (skipped.Iosim.Stats.seeks > 1);
  ignore
    (case "hybrid"
       ~layout:(Indexing.Stream_table.Hybrid { universe = 8192; chunk = 512 })
       all)

let suite =
  [
    qcheck prop_msb_matches_naive;
    Alcotest.test_case "peek/consume/seek/skip" `Quick test_peek_consume;
    Alcotest.test_case "decoder error cases" `Quick test_decoder_errors;
    Alcotest.test_case "runs across cache windows" `Quick
      test_runs_across_windows;
    Alcotest.test_case "final partial byte" `Quick test_final_partial_byte;
    qcheck prop_gamma_diff;
    qcheck prop_delta_diff;
    qcheck prop_unary_diff;
    qcheck prop_rice_diff;
    qcheck prop_fixed_diff;
    qcheck prop_fibonacci_diff;
    Alcotest.test_case "fibonacci wide codewords" `Quick
      test_fibonacci_wide_codewords;
    qcheck prop_reader_of_bytes_diff;
    qcheck prop_bulk_decode_agree;
    Alcotest.test_case "decode_into continuation + bounds" `Quick
      test_decode_into_continuation;
    qcheck prop_block_runs_exact;
    Alcotest.test_case "block runs: stale decoder moves no counter" `Quick
      test_block_runs_stale;
    Alcotest.test_case "block runs: zeroed extent, same counters" `Quick
      test_block_runs_zeroed;
    qcheck prop_arena_union_vs_merge;
    Alcotest.test_case "arena union allocates at most half the merge" `Quick
      test_arena_union_allocation;
    qcheck prop_decode_into_at;
    qcheck prop_arena_parity;
    Alcotest.test_case "arena: consecutive, skipped, hybrid extents" `Quick
      test_arena_cases;
  ]
