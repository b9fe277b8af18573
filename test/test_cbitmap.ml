(* Tests for posting lists, gap compression, blocked layout and WAH. *)

let qcheck = QCheck_alcotest.to_alcotest
let posting l = Cbitmap.Posting.of_list l
let sorted_gen = QCheck.(list (int_range 0 500))

module IntSet = Set.Make (Int)

let set_of_posting p = IntSet.of_list (Cbitmap.Posting.to_list p)

let test_posting_of_list_dedup () =
  let p = posting [ 5; 1; 5; 3; 1 ] in
  Alcotest.(check (list int)) "sorted distinct" [ 1; 3; 5 ]
    (Cbitmap.Posting.to_list p)

let test_posting_of_bitstring () =
  let p = Cbitmap.Posting.of_bitstring "0110001" in
  Alcotest.(check (list int)) "positions" [ 1; 2; 6 ]
    (Cbitmap.Posting.to_list p)

let test_posting_mem_rank () =
  let p = posting [ 2; 4; 8; 16 ] in
  Alcotest.(check bool) "mem 4" true (Cbitmap.Posting.mem p 4);
  Alcotest.(check bool) "mem 5" false (Cbitmap.Posting.mem p 5);
  Alcotest.(check int) "rank 0" 0 (Cbitmap.Posting.rank p 0);
  Alcotest.(check int) "rank 4" 1 (Cbitmap.Posting.rank p 4);
  Alcotest.(check int) "rank 5" 2 (Cbitmap.Posting.rank p 5);
  Alcotest.(check int) "rank 100" 4 (Cbitmap.Posting.rank p 100)

let test_posting_filter_range () =
  let p = posting [ 1; 3; 5; 7; 9 ] in
  Alcotest.(check (list int)) "inside" [ 3; 5; 7 ]
    (Cbitmap.Posting.to_list (Cbitmap.Posting.filter_range ~lo:2 ~hi:8 p));
  Alcotest.(check (list int)) "empty" []
    (Cbitmap.Posting.to_list (Cbitmap.Posting.filter_range ~lo:10 ~hi:20 p))

let test_posting_of_sorted_array_rejects () =
  Alcotest.check_raises "not increasing" (Invalid_argument
    "Posting.of_sorted_array: not strictly increasing") (fun () ->
      ignore (Cbitmap.Posting.of_sorted_array [| 1; 1 |]))

let prop_setops name op set_op =
  QCheck.Test.make ~count:200 ~name (QCheck.pair sorted_gen sorted_gen)
    (fun (xs, ys) ->
      let a = posting xs and b = posting ys in
      let got = set_of_posting (op a b) in
      let expected =
        set_op (IntSet.of_list xs) (IntSet.of_list ys)
      in
      IntSet.equal got expected)

let prop_union = prop_setops "posting union = set union" Cbitmap.Posting.union IntSet.union
let prop_inter = prop_setops "posting inter = set inter" Cbitmap.Posting.inter IntSet.inter
let prop_diff = prop_setops "posting diff = set diff" Cbitmap.Posting.diff IntSet.diff

let prop_complement =
  QCheck.Test.make ~count:200 ~name:"complement twice is identity" sorted_gen
    (fun xs ->
      let p = posting xs in
      let n = 501 in
      Cbitmap.Posting.equal p
        (Cbitmap.Posting.complement ~n (Cbitmap.Posting.complement ~n p)))

let prop_union_many =
  QCheck.Test.make ~count:200 ~name:"union_many = folded union"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) sorted_gen)
    (fun lists ->
      let ps = List.map posting lists in
      let got = Cbitmap.Posting.union_many ps in
      let expected =
        List.fold_left Cbitmap.Posting.union Cbitmap.Posting.empty ps
      in
      Cbitmap.Posting.equal got expected)

(* [union_many] picks its algorithm from the inputs: a bitmap scan
   when total * 64 >= max + 1, pairwise merges otherwise.  Each regime
   is generated on purpose and checked against the sort-and-dedup
   reference; the dense lists always carry the word-edge values 62, 63
   and 126 (so every list repeats them). *)
let union_many_regime ~name ~dense gen =
  QCheck.Test.make ~count:200 ~name
    (QCheck.make
       ~print:QCheck.Print.(list (list int))
       QCheck.Gen.(list_size (int_range 2 6) gen))
    (fun lists ->
      let ps = List.map posting lists in
      let total = List.fold_left (fun a p -> a + Cbitmap.Posting.cardinal p) 0 ps in
      let universe = 1 + List.fold_left (List.fold_left max) (-1) lists in
      (total * 64 >= universe) = dense
      && Cbitmap.Posting.equal
           (Cbitmap.Posting.union_many ps)
           (posting (List.concat lists)))

let prop_union_many_dense =
  union_many_regime ~name:"union_many dense (bitmap) = of_list concat" ~dense:true
    QCheck.Gen.(map (fun l -> 62 :: 63 :: 126 :: l) (list_size (int_range 0 40) (int_range 0 300)))

let prop_union_many_sparse =
  union_many_regime ~name:"union_many sparse (pairwise) = of_list concat" ~dense:false
    QCheck.Gen.(map (fun l -> 1_000_000 :: l) (list_size (int_range 0 20) (int_range 0 1_000_000)))

(* [concat] and [shift] through the sharded router's answer writer,
   which replaced [Posting.concat] and [Posting.shift]. *)
let writer_concat ?(shift = 0) parts =
  let w =
    Cbitmap.Posting.Writer.create
      (List.fold_left (fun acc p -> acc + Cbitmap.Posting.cardinal p) 0 parts)
  in
  List.iter (Cbitmap.Posting.Writer.add w ~shift) parts;
  Cbitmap.Posting.Writer.finish w

let writer_shift p k = writer_concat ~shift:k [ p ]

let test_concat_seams () =
  let raises name parts =
    Alcotest.check_raises name
      (Invalid_argument "Posting.Writer: parts overlap or are out of order")
      (fun () -> ignore (writer_concat (List.map posting parts)))
  in
  raises "overlap" [ [ 1; 5 ]; [ 4; 9 ] ];
  raises "shared seam" [ [ 1; 5 ]; [ 5; 9 ] ];
  raises "out of order" [ [ 10; 11 ]; [ 1; 2 ] ];
  raises "seam across an empty part" [ [ 1; 7 ]; []; [ 3 ] ];
  Alcotest.(check (list int)) "disjoint ordered parts" [ 0; 3; 4; 8; 9 ]
    (Cbitmap.Posting.to_list
       (writer_concat (List.map posting [ []; [ 0; 3 ]; [ 4 ]; []; [ 8; 9 ] ])));
  Alcotest.(check (list int)) "no parts" []
    (Cbitmap.Posting.to_list (writer_concat []))

let prop_shift =
  QCheck.Test.make ~count:200 ~name:"shift keeps order and cardinality"
    QCheck.(pair sorted_gen (int_range 0 1000))
    (fun (xs, k) ->
      let p = posting xs in
      let q = writer_shift p k in
      Cbitmap.Posting.cardinal q = Cbitmap.Posting.cardinal p
      && Cbitmap.Posting.to_list q
         = List.map (fun v -> v + k) (Cbitmap.Posting.to_list p)
      && Cbitmap.Posting.equal q
           (Cbitmap.Posting.of_sorted_array (Cbitmap.Posting.to_array q)))

let test_shift_negative () =
  Alcotest.check_raises "below zero" (Invalid_argument "Posting.Writer: negative")
    (fun () -> ignore (writer_shift (posting [ 2; 5 ]) (-3)))

(* The writer's complement parts, its declared total and its
   uncopied whole part. *)
let test_writer_parts () =
  let module W = Cbitmap.Posting.Writer in
  let build total f =
    let w = W.create total in
    f w;
    Cbitmap.Posting.to_list (W.finish w)
  in
  let raises name msg total f =
    Alcotest.check_raises name (Invalid_argument ("Posting.Writer: " ^ msg))
      (fun () -> ignore (build total f))
  in
  Alcotest.(check (list int)) "direct, complement, direct" [ 0; 2; 10; 11; 13; 20 ]
    (build 6 (fun w ->
         W.add w ~shift:0 (posting [ 0; 2 ]);
         W.add_complement w ~shift:10 ~n:4 (posting [ 2 ]);
         W.add w ~shift:20 (posting [ 0 ])));
  Alcotest.(check (list int)) "complement of nothing" [ 5; 6; 7 ]
    (build 3 (fun w -> W.add_complement w ~shift:5 ~n:3 Cbitmap.Posting.empty));
  Alcotest.(check (list int)) "seam at the first written element" [ 0; 4; 5; 6 ]
    (build 4 (fun w ->
         W.add w ~shift:0 (posting [ 0; 4 ]);
         W.add_complement w ~shift:3 ~n:4 (posting [ 0; 1 ])));
  Alcotest.(check (list int)) "complement excluding everything" [ 1 ]
    (build 1 (fun w ->
         W.add w ~shift:0 (posting [ 1 ]);
         W.add_complement w ~shift:0 ~n:2 (posting [ 0; 1 ])));
  raises "complement overlaps a direct part" "parts overlap or are out of order" 6
    (fun w ->
      W.add w ~shift:0 (posting [ 0; 5 ]);
      W.add_complement w ~shift:3 ~n:4 Cbitmap.Posting.empty);
  raises "direct part below a complement" "parts overlap or are out of order" 3
    (fun w ->
      W.add_complement w ~shift:10 ~n:2 Cbitmap.Posting.empty;
      W.add w ~shift:0 (posting [ 3 ]));
  raises "two complements out of order" "parts overlap or are out of order" 4
    (fun w ->
      W.add_complement w ~shift:10 ~n:2 Cbitmap.Posting.empty;
      W.add_complement w ~shift:11 ~n:2 Cbitmap.Posting.empty);
  raises "negative complement" "negative" 2 (fun w ->
      W.add_complement w ~shift:(-1) ~n:2 Cbitmap.Posting.empty);
  raises "excluded position outside [0;n)" "excluded positions outside [0;n)" 2
    (fun w -> W.add_complement w ~shift:0 ~n:3 (posting [ 3 ]));
  raises "past the declared total" "more elements than declared" 1 (fun w ->
      W.add w ~shift:0 (posting [ 0; 1 ]));
  raises "short of the declared total" "fewer elements than declared" 3 (fun w ->
      W.add w ~shift:0 (posting [ 0 ]));
  let whole = posting [ 0; 1; 2 ] in
  let w = W.create 3 in
  W.add w ~shift:0 whole;
  Alcotest.(check bool) "a whole unshifted part is not copied" true (W.finish w == whole)

let prop_gap_roundtrip =
  QCheck.Test.make ~count:300 ~name:"gap codec roundtrip (gamma)" sorted_gen
    (fun xs ->
      let p = posting xs in
      let buf = Cbitmap.Gap_codec.to_buf p in
      if Bitio.Bitbuf.length buf <> Cbitmap.Gap_codec.encoded_size p then false
      else begin
        let d = Bitio.Decoder.of_bitbuf buf in
        let q =
          Cbitmap.Gap_codec.decode d ~count:(Cbitmap.Posting.cardinal p)
        in
        Cbitmap.Posting.equal p q
      end)

let prop_gap_roundtrip_codes =
  QCheck.Test.make ~count:200 ~name:"gap codec roundtrip (delta, rice)"
    sorted_gen
    (fun xs ->
      let p = posting xs in
      List.for_all
        (fun code ->
          let buf = Bitio.Bitbuf.create () in
          Cbitmap.Gap_codec.encode ~code buf p;
          let d = Bitio.Decoder.of_bitbuf buf in
          Cbitmap.Posting.equal p
            (Cbitmap.Gap_codec.decode ~code d
               ~count:(Cbitmap.Posting.cardinal p)))
        [ Cbitmap.Gap_codec.Delta; Cbitmap.Gap_codec.Rice 3 ])

let prop_gap_stream =
  QCheck.Test.make ~count:200 ~name:"gap stream equals decode" sorted_gen
    (fun xs ->
      let p = posting xs in
      let buf = Cbitmap.Gap_codec.to_buf p in
      let s =
        Oracle.Gap_codec.stream
          (Bitio.Decoder.of_bitbuf buf)
          ~count:(Cbitmap.Posting.cardinal p)
      in
      Cbitmap.Posting.equal p (Oracle.Merge.to_posting s))

let prop_gap_shifted =
  QCheck.Test.make ~count:200 ~name:"shifted encoding shifts positions"
    (QCheck.pair (QCheck.int_range 0 1000) sorted_gen)
    (fun (shift, xs) ->
      let p = posting xs in
      let buf = Bitio.Bitbuf.create () in
      Cbitmap.Gap_codec.encode_shifted ~shift buf p;
      let d = Bitio.Decoder.of_bitbuf buf in
      let q = Cbitmap.Gap_codec.decode d ~count:(Cbitmap.Posting.cardinal p) in
      List.for_all2
        (fun a b -> a + shift = b)
        (Cbitmap.Posting.to_list p) (Cbitmap.Posting.to_list q))

let test_gap_append () =
  let buf = Bitio.Bitbuf.create () in
  let values = [ 0; 7; 8; 100 ] in
  let last = ref (-1) in
  List.iter
    (fun p ->
      let expected = Cbitmap.Gap_codec.append_size ~last:!last p in
      let before = Bitio.Bitbuf.length buf in
      Cbitmap.Gap_codec.encode_append ~last:!last buf p;
      Alcotest.(check int) "append_size exact" expected
        (Bitio.Bitbuf.length buf - before);
      last := p)
    values;
  let d = Bitio.Decoder.of_bitbuf buf in
  let q = Cbitmap.Gap_codec.decode d ~count:4 in
  Alcotest.(check (list int)) "append decodes" values
    (Cbitmap.Posting.to_list q)

let test_binomial_entropy () =
  (* lg (4 choose 2) = lg 6 *)
  let got = Cbitmap.Gap_codec.binomial_entropy_bits ~n:4 ~m:2 in
  Alcotest.(check (float 1e-9)) "lg 6" (log 6.0 /. log 2.0) got;
  Alcotest.(check (float 1e-9)) "m=0" 0.0
    (Cbitmap.Gap_codec.binomial_entropy_bits ~n:10 ~m:0);
  Alcotest.(check (float 1e-9)) "m=n" 0.0
    (Cbitmap.Gap_codec.binomial_entropy_bits ~n:10 ~m:10)

let prop_merge_union =
  QCheck.Test.make ~count:200 ~name:"stream union = posting union_many"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 5) sorted_gen)
    (fun lists ->
      let ps = List.map posting lists in
      let streams = List.map Oracle.Merge.of_posting ps in
      Cbitmap.Posting.equal
        (Oracle.Merge.union_to_posting streams)
        (Cbitmap.Posting.union_many ps))

let test_merge_length () =
  let s = Oracle.Merge.of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "length" 3 (Oracle.Merge.length s)

let prop_blocked_roundtrip =
  QCheck.Test.make ~count:200 ~name:"blocked layout roundtrip"
    (QCheck.pair (QCheck.int_range 32 128) sorted_gen)
    (fun (payload, xs) ->
      let p = posting xs in
      let b = Cbitmap.Blocked.encode ~payload_bits:payload p in
      Cbitmap.Posting.equal p (Cbitmap.Blocked.decode b))

let prop_blocked_block_bounds =
  QCheck.Test.make ~count:200 ~name:"blocked blocks respect payload size"
    (QCheck.pair (QCheck.int_range 32 96) sorted_gen)
    (fun (payload, xs) ->
      let p = posting xs in
      let b = Cbitmap.Blocked.encode ~payload_bits:payload p in
      let ok = ref true in
      for i = 0 to Cbitmap.Blocked.block_count b - 1 do
        if Bitio.Bitbuf.length (Cbitmap.Blocked.block b i) > payload then
          ok := false;
        (* First value of every block is its smallest element. *)
        let decoded = Cbitmap.Blocked.decode_block b i in
        if Cbitmap.Posting.cardinal decoded <> Cbitmap.Blocked.count b i then
          ok := false;
        if
          Cbitmap.Posting.cardinal decoded > 0
          && Cbitmap.Posting.get decoded 0 <> Cbitmap.Blocked.first b i
        then ok := false
      done;
      !ok)

let test_blocked_seek () =
  let p = posting [ 10; 20; 30; 40; 50; 60; 70; 80 ] in
  let b = Cbitmap.Blocked.encode ~payload_bits:32 p in
  Alcotest.(check bool) "multiple blocks" true
    (Cbitmap.Blocked.block_count b > 1);
  (match Cbitmap.Blocked.seek_block b 0 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "seek before first");
  (* Every element must be found in its seeked block. *)
  Cbitmap.Posting.iter
    (fun v ->
      match Cbitmap.Blocked.seek_block b v with
      | None -> Alcotest.fail "seek returned None"
      | Some i ->
          let d = Cbitmap.Blocked.decode_block b i in
          if not (Cbitmap.Posting.mem d v) then
            Alcotest.failf "position %d not in block %d" v i)
    p

let test_blocked_empty () =
  let b = Cbitmap.Blocked.encode ~payload_bits:64 Cbitmap.Posting.empty in
  Alcotest.(check int) "no blocks" 0 (Cbitmap.Blocked.block_count b);
  Alcotest.(check bool) "seek none" true
    (Cbitmap.Blocked.seek_block b 5 = None)

let prop_wah_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wah roundtrip" sorted_gen (fun xs ->
      let p = posting xs in
      let n = 501 in
      let w = Cbitmap.Wah.encode ~n p in
      Cbitmap.Posting.equal p (Cbitmap.Wah.decode w))

let test_wah_compresses_runs () =
  (* A mostly-empty bitmap must compress far below n bits. *)
  let n = 31 * 1000 in
  let p = posting [ 0; n - 1 ] in
  let w = Cbitmap.Wah.encode ~n p in
  Alcotest.(check bool) "small" true (Cbitmap.Wah.size_bits w < 32 * 8);
  (* All ones compresses to ~1 fill word. *)
  let all = Cbitmap.Posting.of_sorted_array (Array.init n (fun i -> i)) in
  let w2 = Cbitmap.Wah.encode ~n all in
  Alcotest.(check bool) "all ones small" true (Cbitmap.Wah.size_bits w2 <= 64)

let prop_wah_boolean =
  QCheck.Test.make ~count:100 ~name:"wah union/inter match posting ops"
    (QCheck.pair sorted_gen sorted_gen)
    (fun (xs, ys) ->
      let n = 501 in
      let a = posting xs and b = posting ys in
      let wa = Cbitmap.Wah.encode ~n a and wb = Cbitmap.Wah.encode ~n b in
      Cbitmap.Posting.equal
        (Cbitmap.Wah.decode (Cbitmap.Wah.union wa wb))
        (Cbitmap.Posting.union a b)
      && Cbitmap.Posting.equal
           (Cbitmap.Wah.decode (Cbitmap.Wah.inter wa wb))
           (Cbitmap.Posting.inter a b))

let prop_wah_serialize =
  QCheck.Test.make ~count:100 ~name:"wah to_buf/of_decoder roundtrip"
    sorted_gen
    (fun xs ->
      let p = posting xs in
      let n = 501 in
      let w = Cbitmap.Wah.encode ~n p in
      let buf = Cbitmap.Wah.to_buf w in
      let words = Cbitmap.Wah.word_count w in
      let w' =
        Cbitmap.Wah.of_decoder
          (Bitio.Decoder.of_bitbuf buf)
          ~words ~bit_length:n
      in
      Cbitmap.Posting.equal p (Cbitmap.Wah.decode w'))

let test_entropy_uniform () =
  (* Uniform over 4 characters: H0 = 2 bits. *)
  let x = Array.init 400 (fun i -> i mod 4) in
  Alcotest.(check (float 1e-9)) "h0" 2.0 (Cbitmap.Entropy.h0 ~sigma:4 x)

let test_entropy_constant () =
  let x = Array.make 100 3 in
  Alcotest.(check (float 1e-9)) "h0 zero" 0.0 (Cbitmap.Entropy.h0 ~sigma:8 x)

let test_entropy_skewed () =
  (* p = (1/2, 1/4, 1/4): H0 = 1.5. *)
  let x = Array.init 400 (fun i -> if i mod 4 < 2 then 0 else (i mod 4) - 1) in
  Alcotest.(check (float 1e-9)) "h0" 1.5 (Cbitmap.Entropy.h0 ~sigma:3 x);
  Alcotest.(check (float 1e-6)) "nh0" 600.0
    (Cbitmap.Entropy.nh0_bits ~sigma:3 x)

let prop_gamma_size_near_optimal =
  QCheck.Test.make ~count:50 ~name:"gamma gap size within 4x of binomial bound"
    (QCheck.int_range 10 400)
    (fun m ->
      let n = 10_000 in
      (* Evenly spread m elements: the adversarial case for gaps is
         near-uniform, where gamma pays ~2 lg(n/m) vs lg(n/m)+1.44. *)
      let p =
        Cbitmap.Posting.of_sorted_array (Array.init m (fun i -> i * (n / m)))
      in
      let bits = Cbitmap.Gap_codec.encoded_size p in
      let bound = Cbitmap.Gap_codec.binomial_entropy_bits ~n ~m in
      float_of_int bits <= (4.0 *. bound) +. 64.0)

let prop_filter =
  QCheck.Test.make ~count:300 ~name:"filter p s = of_list (List.filter p s)"
    (QCheck.pair (QCheck.int_range 1 7) sorted_gen)
    (fun (m, xs) ->
      let s = posting xs in
      let p v = v mod m <> 0 in
      let seen = ref [] in
      let got =
        Cbitmap.Posting.filter
          (fun v ->
            seen := v :: !seen;
            p v)
          s
      in
      Cbitmap.Posting.equal got
        (posting (List.filter p (Cbitmap.Posting.to_list s)))
      && List.rev !seen = Cbitmap.Posting.to_list s)

(* [union_slices] over slices of padded arrays — junk before and
   after each slice, which the kernel must not read — equals the
   sort-and-dedup reference, in both regimes, and shares no storage
   with its inputs.  One scratch serves every
   case, so a bitmap word left set by one union would corrupt a later
   one. *)
let shared_scratch = Cbitmap.Posting.scratch ()

let prop_union_slices ~dense =
  let gen =
    if dense then
      QCheck.Gen.(map (fun l -> 62 :: 63 :: 126 :: l) (list_size (int_range 0 40) (int_range 0 300)))
    else QCheck.Gen.(map (fun l -> 1_000_000 :: l) (list_size (int_range 0 20) (int_range 0 1_000_000)))
  in
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:
      (Printf.sprintf "union_slices %s = of_list concat (shared scratch)"
         (if dense then "dense" else "sparse"))
    (QCheck.make
       ~print:QCheck.Print.(list (triple int (list int) int))
       QCheck.Gen.(list_size (int_range 1 6) (triple (int_range 0 3) gen (int_range 0 3))))
    (fun cases ->
      let slices =
        List.map
          (fun (before, l, after) ->
            let p = Cbitmap.Posting.to_array (posting l) in
            let len = Array.length p in
            let a = Array.make (before + len + after) (-1) in
            Array.blit p 0 a before len;
            if after > 0 then a.(before + len) <- max_int;
            (a, before, len))
          cases
      in
      let lists = List.map (fun (_, l, _) -> l) cases in
      let total = List.fold_left (fun acc (_, _, len) -> acc + len) 0 slices in
      let universe = 1 + List.fold_left (List.fold_left max) (-1) lists in
      let got = Cbitmap.Posting.union_slices ~scratch:shared_scratch slices in
      (* the result owns its storage: clobbering the inputs leaves it *)
      List.iter (fun (a, _, _) -> Array.fill a 0 (Array.length a) (-5)) slices;
      (List.length lists < 2 || (total * 64 >= universe) = dense)
      && Cbitmap.Posting.equal got (posting (List.concat lists)))

(* A [clear] for fewer positions zeroes only the words they need, so
   the words past them may hold an earlier query's bits: [mem] and
   [to_posting] must not read them, and [add] refuses them. *)
let test_bitset_shrinking_clear () =
  let module B = Cbitmap.Bitset in
  let b = B.create () in
  B.clear b ~n:4096;
  B.add b 4000;
  B.add b 3;
  B.clear b ~n:64;
  Alcotest.(check bool) "stale high position" false (B.mem b 4000);
  Alcotest.(check bool) "cleared low position" false (B.mem b 3);
  Alcotest.(check (list int)) "empty" [] (Cbitmap.Posting.to_list (B.to_posting b));
  Alcotest.check_raises "add past the room" (Invalid_argument "Bitset.add")
    (fun () -> B.add b 4000);
  B.add b 63;
  Alcotest.(check (list int)) "one" [ 63 ] (Cbitmap.Posting.to_list (B.to_posting b));
  B.clear b ~n:4096;
  Alcotest.(check bool) "regrown room is zeroed" false (B.mem b 4000)

let suite =
  [
    Alcotest.test_case "of_list sorts and dedups" `Quick
      test_posting_of_list_dedup;
    Alcotest.test_case "of_bitstring" `Quick test_posting_of_bitstring;
    Alcotest.test_case "mem/rank" `Quick test_posting_mem_rank;
    Alcotest.test_case "filter_range" `Quick test_posting_filter_range;
    Alcotest.test_case "of_sorted_array validation" `Quick
      test_posting_of_sorted_array_rejects;
    qcheck prop_union;
    qcheck prop_inter;
    qcheck prop_diff;
    qcheck prop_complement;
    qcheck prop_union_many;
    qcheck prop_union_many_dense;
    qcheck prop_union_many_sparse;
    Alcotest.test_case "concat checks seams" `Quick test_concat_seams;
    qcheck prop_shift;
    Alcotest.test_case "shift below zero" `Quick test_shift_negative;
    qcheck prop_gap_roundtrip;
    qcheck prop_gap_roundtrip_codes;
    qcheck prop_gap_stream;
    qcheck prop_gap_shifted;
    Alcotest.test_case "incremental append" `Quick test_gap_append;
    Alcotest.test_case "binomial entropy" `Quick test_binomial_entropy;
    qcheck prop_merge_union;
    Alcotest.test_case "merge length" `Quick test_merge_length;
    qcheck prop_blocked_roundtrip;
    qcheck prop_blocked_block_bounds;
    Alcotest.test_case "blocked seek" `Quick test_blocked_seek;
    Alcotest.test_case "blocked empty" `Quick test_blocked_empty;
    qcheck prop_wah_roundtrip;
    Alcotest.test_case "wah compresses runs" `Quick test_wah_compresses_runs;
    qcheck prop_wah_boolean;
    qcheck prop_wah_serialize;
    Alcotest.test_case "entropy uniform" `Quick test_entropy_uniform;
    Alcotest.test_case "entropy constant" `Quick test_entropy_constant;
    Alcotest.test_case "entropy skewed" `Quick test_entropy_skewed;
    qcheck prop_gamma_size_near_optimal;
    Alcotest.test_case "writer: complements, totals, seams" `Quick test_writer_parts;
    qcheck prop_filter;
    qcheck (prop_union_slices ~dense:true);
    qcheck (prop_union_slices ~dense:false);
    Alcotest.test_case "bitset: shrinking clear hides stale words" `Quick
      test_bitset_shrinking_clear;
  ]
