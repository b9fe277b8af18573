(* Tests for the succinct substrate: rank/select bitvectors,
   Elias–Fano monotone encoding, Fibonacci codes. *)

let qcheck = QCheck_alcotest.to_alcotest

module IntSet = Set.Make (Int)

let posting_gen =
  QCheck.(pair (int_range 1 600) (list (int_range 0 599)))

(* --- rank/select --- *)

let prop_rank_matches_naive =
  QCheck.Test.make ~count:200 ~name:"rank1/rank0 match counting" posting_gen
    (fun (n, elems) ->
      let elems = List.filter (fun v -> v < n) elems in
      let p = Cbitmap.Posting.of_list elems in
      let rs = Cbitmap.Rank_select.of_posting ~n p in
      let set = IntSet.of_list elems in
      let ok = ref true in
      for i = 0 to n do
        let expected = IntSet.cardinal (IntSet.filter (fun v -> v < i) set) in
        if Cbitmap.Rank_select.rank1 rs i <> expected then ok := false;
        if Cbitmap.Rank_select.rank0 rs i <> i - expected then ok := false
      done;
      !ok)

let prop_select_inverts_rank =
  QCheck.Test.make ~count:200 ~name:"select1 is the inverse of rank1"
    posting_gen
    (fun (n, elems) ->
      let elems = List.filter (fun v -> v < n) elems in
      let p = Cbitmap.Posting.of_list elems in
      let rs = Cbitmap.Rank_select.of_posting ~n p in
      let sorted = Cbitmap.Posting.to_list p in
      List.for_all2
        (fun k v -> Cbitmap.Rank_select.select1 rs k = v)
        (List.init (List.length sorted) Fun.id)
        sorted)

let prop_select0 =
  QCheck.Test.make ~count:150 ~name:"select0 finds the k-th zero" posting_gen
    (fun (n, elems) ->
      let elems = List.filter (fun v -> v < n) elems in
      let p = Cbitmap.Posting.of_list elems in
      let rs = Cbitmap.Rank_select.of_posting ~n p in
      let zeros =
        List.filter
          (fun i -> not (Cbitmap.Posting.mem p i))
          (List.init n Fun.id)
      in
      List.for_all2
        (fun k v -> Cbitmap.Rank_select.select0 rs k = v)
        (List.init (List.length zeros) Fun.id)
        zeros)

let test_select_out_of_range () =
  let rs =
    Cbitmap.Rank_select.of_posting ~n:10 (Cbitmap.Posting.of_list [ 1; 5 ])
  in
  Alcotest.check_raises "select1 too far" Not_found (fun () ->
      ignore (Cbitmap.Rank_select.select1 rs 2));
  Alcotest.(check int) "ones" 2 (Cbitmap.Rank_select.ones rs);
  Alcotest.(check int) "length" 10 (Cbitmap.Rank_select.length rs)

let prop_rs_roundtrip =
  QCheck.Test.make ~count:150 ~name:"rank_select roundtrips posting"
    posting_gen
    (fun (n, elems) ->
      let elems = List.filter (fun v -> v < n) elems in
      let p = Cbitmap.Posting.of_list elems in
      let rs = Cbitmap.Rank_select.of_posting ~n p in
      Cbitmap.Posting.equal p (Cbitmap.Rank_select.to_posting rs))

let test_rs_of_bitbuf () =
  let buf = Bitio.Bitbuf.of_int ~width:8 0b10110001 in
  let rs = Cbitmap.Rank_select.of_bitbuf buf in
  Alcotest.(check (list int)) "set bits" [ 0; 2; 3; 7 ]
    (Cbitmap.Posting.to_list (Cbitmap.Rank_select.to_posting rs))

(* The direct-fill of_bitbuf must agree with the of_posting builder,
   on buffers long enough to cross several 63-bit payload words. *)
let prop_rs_of_bitbuf_matches_posting =
  QCheck.Test.make ~count:150 ~name:"of_bitbuf = of_posting on the same bits"
    QCheck.(pair (int_range 1 400) (list (int_range 0 399)))
    (fun (n, elems) ->
      let elems = List.filter (fun v -> v < n) elems in
      let set = IntSet.of_list elems in
      let buf = Bitio.Bitbuf.create () in
      for i = 0 to n - 1 do
        Bitio.Bitbuf.write_bit buf (IntSet.mem i set)
      done;
      let a = Cbitmap.Rank_select.of_bitbuf buf in
      let b =
        Cbitmap.Rank_select.of_posting ~n (Cbitmap.Posting.of_list elems)
      in
      Cbitmap.Rank_select.ones a = Cbitmap.Rank_select.ones b
      && Cbitmap.Posting.equal
           (Cbitmap.Rank_select.to_posting a)
           (Cbitmap.Rank_select.to_posting b)
      && List.for_all
           (fun i -> Cbitmap.Rank_select.rank1 a i = Cbitmap.Rank_select.rank1 b i)
           (List.init (n + 1) Fun.id))

let test_rs_size_bits () =
  (* 130 bits -> 3 payload words (+1 sentinel) and a 5-entry rank
     directory, each stored as a full machine word. *)
  let rs =
    Cbitmap.Rank_select.of_posting ~n:130 (Cbitmap.Posting.of_list [ 0; 129 ])
  in
  let words = ((130 + 62) / 63) + 1 in
  Alcotest.(check int) "actual machine words"
    ((words + words + 1) * (Sys.int_size + 1))
    (Cbitmap.Rank_select.size_bits rs)

(* --- Elias–Fano --- *)

let prop_ef_roundtrip =
  QCheck.Test.make ~count:200 ~name:"elias-fano roundtrip" posting_gen
    (fun (u, elems) ->
      let elems = List.filter (fun v -> v < u) elems in
      let p = Cbitmap.Posting.of_list elems in
      let ef = Cbitmap.Elias_fano.encode ~u p in
      Cbitmap.Posting.equal p (Cbitmap.Elias_fano.decode ef))

let prop_ef_get =
  QCheck.Test.make ~count:200 ~name:"elias-fano random access" posting_gen
    (fun (u, elems) ->
      let elems = List.filter (fun v -> v < u) elems in
      let p = Cbitmap.Posting.of_list elems in
      let ef = Cbitmap.Elias_fano.encode ~u p in
      let sorted = Cbitmap.Posting.to_list p in
      List.for_all2
        (fun k v -> Cbitmap.Elias_fano.get ef k = v)
        (List.init (List.length sorted) Fun.id)
        sorted)

let prop_ef_successor =
  QCheck.Test.make ~count:150 ~name:"elias-fano successor" posting_gen
    (fun (u, elems) ->
      let elems = List.filter (fun v -> v < u) elems in
      let p = Cbitmap.Posting.of_list elems in
      let ef = Cbitmap.Elias_fano.encode ~u p in
      let sorted = Cbitmap.Posting.to_list p in
      let naive_succ x = List.find_opt (fun v -> v >= x) sorted in
      List.for_all
        (fun x ->
          Cbitmap.Elias_fano.successor ef x = naive_succ x
          && Cbitmap.Elias_fano.mem ef x = List.mem x sorted)
        (List.init (u + 2) Fun.id))

let test_ef_space () =
  (* m elements below u in about m (2 + lg (u/m)) bits. *)
  let u = 1 lsl 20 in
  let m = 1024 in
  let rng = Hashing.Universal.Rng.create ~seed:31 in
  let p =
    Cbitmap.Posting.of_list
      (List.init m (fun _ -> Hashing.Universal.Rng.below rng u))
  in
  let ef = Cbitmap.Elias_fano.encode ~u p in
  let per_elem =
    float_of_int (Cbitmap.Elias_fano.size_bits ef)
    /. float_of_int (Cbitmap.Elias_fano.cardinal ef)
  in
  let reference = Cbitmap.Elias_fano.bits_per_element ef in
  (* Allow the rank directory overhead. *)
  if per_elem > 2.5 *. reference then
    Alcotest.failf "EF uses %.1f bits/elem vs reference %.1f" per_elem
      reference

let test_ef_empty () =
  let ef = Cbitmap.Elias_fano.encode ~u:100 Cbitmap.Posting.empty in
  Alcotest.(check int) "cardinal" 0 (Cbitmap.Elias_fano.cardinal ef);
  Alcotest.(check bool) "successor none" true
    (Cbitmap.Elias_fano.successor ef 0 = None)

(* --- Fibonacci code --- *)

let test_fibonacci_known () =
  (* 1 -> "11", 2 -> "011", 3 -> "0011", 4 -> "1011". *)
  let enc v =
    let buf = Bitio.Bitbuf.create () in
    Bitio.Codes.encode_fibonacci buf v;
    Format.asprintf "%a" Bitio.Bitbuf.pp buf
  in
  Alcotest.(check string) "1" "11" (enc 1);
  Alcotest.(check string) "2" "011" (enc 2);
  Alcotest.(check string) "3" "0011" (enc 3);
  Alcotest.(check string) "4" "1011" (enc 4);
  Alcotest.(check string) "5" "00011" (enc 5)

let prop_fibonacci_roundtrip =
  QCheck.Test.make ~count:300 ~name:"fibonacci roundtrip+size"
    QCheck.(list_of_size (Gen.return 15) (int_range 1 1_000_000))
    (fun vs ->
      let buf = Bitio.Bitbuf.create () in
      let expected =
        List.fold_left (fun acc v -> acc + Bitio.Codes.fibonacci_size v) 0 vs
      in
      List.iter (Bitio.Codes.encode_fibonacci buf) vs;
      Bitio.Bitbuf.length buf = expected
      &&
      let d = Bitio.Decoder.of_bitbuf buf in
      List.for_all (fun v -> Bitio.Codes.decode_fibonacci d = v) vs)

let prop_gap_codec_fibonacci =
  QCheck.Test.make ~count:150 ~name:"gap codec with fibonacci code"
    QCheck.(list (int_range 0 500))
    (fun xs ->
      let p = Cbitmap.Posting.of_list xs in
      let buf = Bitio.Bitbuf.create () in
      Cbitmap.Gap_codec.encode ~code:Cbitmap.Gap_codec.Fibonacci buf p;
      let d = Bitio.Decoder.of_bitbuf buf in
      Cbitmap.Posting.equal p
        (Cbitmap.Gap_codec.decode ~code:Cbitmap.Gap_codec.Fibonacci d
           ~count:(Cbitmap.Posting.cardinal p)))

let prop_stream_from =
  QCheck.Test.make ~count:100 ~name:"stream_from continues a sequence"
    QCheck.(pair (int_range 0 100) (list (int_range 1 50)))
    (fun (start, gaps) ->
      QCheck.assume (gaps <> []);
      (* Encode an increasing tail relative to a known last value. *)
      let values =
        List.rev
          (List.fold_left (fun acc g -> (List.hd acc + g) :: acc) [ start ] gaps)
      in
      let tail = List.tl values in
      let buf = Bitio.Bitbuf.create () in
      List.iteri
        (fun i v ->
          let last = if i = 0 then start else List.nth tail (i - 1) in
          Cbitmap.Gap_codec.encode_append ~last buf v)
        tail;
      let s =
        Oracle.Gap_codec.stream_from
          (Bitio.Decoder.of_bitbuf buf)
          ~count:(List.length tail) ~last:start
      in
      Cbitmap.Posting.to_list (Oracle.Merge.to_posting s) = tail)

(* The static index also works end-to-end with the fibonacci codec. *)
let prop_static_fibonacci =
  QCheck.Test.make ~count:50 ~name:"static index with fibonacci codec"
    QCheck.(pair (int_range 2 12) (list_of_size (Gen.int_range 1 150) (int_range 0 11)))
    (fun (sigma, data_l) ->
      let data = Array.of_list (List.map (fun v -> v mod sigma) data_l) in
      let dev = Iosim.Device.create ~block_bits:256 ~mem_bits:(64 * 256) () in
      let inst =
        Secidx.Static_index.instance ~code:Cbitmap.Gap_codec.Fibonacci dev
          ~sigma data
      in
      let got =
        Indexing.Answer.to_posting ~n:(Array.length data)
          (inst.Indexing.Instance.query ~lo:0 ~hi:(sigma - 1))
      in
      Cbitmap.Posting.cardinal got = Array.length data)

let suite =
  [
    qcheck prop_rank_matches_naive;
    qcheck prop_select_inverts_rank;
    qcheck prop_select0;
    Alcotest.test_case "select out of range" `Quick test_select_out_of_range;
    qcheck prop_rs_roundtrip;
    Alcotest.test_case "rank_select of bitbuf" `Quick test_rs_of_bitbuf;
    qcheck prop_rs_of_bitbuf_matches_posting;
    Alcotest.test_case "rank_select size accounting" `Quick test_rs_size_bits;
    qcheck prop_ef_roundtrip;
    qcheck prop_ef_get;
    qcheck prop_ef_successor;
    Alcotest.test_case "elias-fano space" `Quick test_ef_space;
    Alcotest.test_case "elias-fano empty" `Quick test_ef_empty;
    Alcotest.test_case "fibonacci known codewords" `Quick test_fibonacci_known;
    qcheck prop_fibonacci_roundtrip;
    qcheck prop_gap_codec_fibonacci;
    qcheck prop_stream_from;
    qcheck prop_static_fibonacci;
  ]
