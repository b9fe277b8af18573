(* Every baseline index must return exactly the naive answer on random
   strings and ranges, and its I/O/space profile must match its
   analytical shape. *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(block_bits = 256) ?(mem_blocks = 64) () =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

let gen_of_array ~sigma data = { Workload.Gen.sigma; data }

(* Random string + random range. *)
let input_gen =
  QCheck.make
    ~print:(fun (sigma, data, lo, hi) ->
      Printf.sprintf "sigma=%d n=%d lo=%d hi=%d [%s]" sigma
        (Array.length data) lo hi
        (String.concat ";" (Array.to_list (Array.map string_of_int data))))
    QCheck.Gen.(
      int_range 1 24 >>= fun sigma ->
      int_range 0 300 >>= fun n ->
      array_size (return n) (int_range 0 (sigma - 1)) >>= fun data ->
      int_range 0 (sigma - 1) >>= fun a ->
      int_range 0 (sigma - 1) >>= fun b ->
      return (sigma, data, min a b, max a b))

let against_naive name builder =
  QCheck.Test.make ~count:150 ~name input_gen (fun (sigma, data, lo, hi) ->
      let dev = device () in
      let inst : Indexing.Instance.t = builder dev ~sigma data in
      let answer =
        Indexing.Answer.to_posting ~n:inst.Indexing.Instance.n
          (fst (Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |])).(0)
      in
      let naive =
        Workload.Queries.naive_answer (gen_of_array ~sigma data)
          { Workload.Queries.lo; hi }
      in
      Cbitmap.Posting.equal answer naive)

let prop_btree = against_naive "btree matches naive" Baselines.Btree.instance

let prop_bitmap =
  against_naive "uncompressed bitmap matches naive"
    Baselines.Bitmap_index.instance

let prop_cbitmap =
  against_naive "compressed bitmap matches naive"
    (Baselines.Cbitmap_index.instance ?code:None)

let prop_binned_w4 =
  against_naive "binned w=4 matches naive" (fun dev ~sigma data ->
      Baselines.Binned_index.instance dev ~sigma ~w:4 data)

let prop_binned_w3 =
  against_naive "binned w=3 matches naive" (fun dev ~sigma data ->
      Baselines.Binned_index.instance dev ~sigma ~w:3 data)

let prop_multires_w2 =
  against_naive "multires w=2 matches naive" (fun dev ~sigma data ->
      Baselines.Multires_index.instance dev ~sigma ~w:2 data)

let prop_multires_w4 =
  against_naive "multires w=4 matches naive" (fun dev ~sigma data ->
      Baselines.Multires_index.instance dev ~sigma ~w:4 data)

let prop_range_encoded =
  against_naive "range encoding matches naive" Baselines.Range_encoded.instance

let prop_cbitmap_delta =
  against_naive "compressed bitmap (delta code) matches naive"
    (Baselines.Cbitmap_index.instance ~code:Cbitmap.Gap_codec.Delta)

(* Multires greedy cover: disjoint, exact, maximal pieces. *)
let prop_multires_cover =
  QCheck.Test.make ~count:200 ~name:"multires cover partitions the range"
    QCheck.(triple (int_range 2 4) (int_range 1 64) (pair small_nat small_nat))
    (fun (w, sigma, (a, b)) ->
      let lo = min a b mod sigma and hi = max a b mod sigma in
      QCheck.assume (lo <= hi);
      let dev = device () in
      let data = Array.init (4 * sigma) (fun i -> i mod sigma) in
      let t = Baselines.Multires_index.build dev ~sigma ~w data in
      let pieces = Baselines.Multires_index.cover t ~lo ~hi in
      (* Expand pieces back to character sets; must tile [lo..hi]. *)
      let covered = ref [] in
      List.iter
        (fun (k, b) ->
          let width = int_of_float (float_of_int w ** float_of_int k) in
          for c = b * width to min (sigma - 1) (((b + 1) * width) - 1) do
            covered := c :: !covered
          done)
        pieces;
      let raw = !covered in
      let deduped = List.sort_uniq compare raw in
      deduped = List.init (hi - lo + 1) (fun i -> lo + i)
      && List.length raw = List.length deduped)

let test_btree_shape () =
  let dev = device ~block_bits:512 () in
  let g = Workload.Gen.uniform ~seed:1 ~n:5000 ~sigma:64 in
  let t = Baselines.Btree.build dev ~sigma:64 g.Workload.Gen.data in
  Alcotest.(check bool) "height small" true (Baselines.Btree.height t <= 4);
  (* Every node is one block. *)
  Alcotest.(check int) "size = nodes * B"
    (Baselines.Btree.node_count t * 512)
    (Baselines.Btree.size_bits t)

let test_btree_io_grows_with_z () =
  (* Reading twice the result should cost roughly twice the leaf I/Os. *)
  let dev = device ~block_bits:512 ~mem_blocks:16 () in
  let g = Workload.Gen.uniform ~seed:3 ~n:20_000 ~sigma:128 in
  let inst = Baselines.Btree.instance dev ~sigma:128 g.Workload.Gen.data in
  let _, s1 = Indexing.Instance.run inst ~pool:`Cold [| (0, 7) |] in
  let _, s2 = Indexing.Instance.run inst ~pool:`Cold [| (0, 63) |] in
  let r1 = s1.Iosim.Stats.block_reads and r2 = s2.Iosim.Stats.block_reads in
  if not (r2 > 4 * r1) then
    Alcotest.failf "btree I/O did not scale with z: %d vs %d" r1 r2

let test_bitmap_io_independent_of_z () =
  (* The uncompressed bitmap index reads l*n bits regardless of content:
     two queries of equal width must cost identical I/Os. *)
  let g = Workload.Gen.zipf ~seed:4 ~n:8192 ~sigma:64 ~theta:1.2 () in
  let dev = device ~block_bits:512 ~mem_blocks:8 () in
  let inst = Baselines.Bitmap_index.instance dev ~sigma:64 g.Workload.Gen.data in
  let _, s1 = Indexing.Instance.run inst ~pool:`Cold [| (0, 7) |] in
  let _, s2 = Indexing.Instance.run inst ~pool:`Cold [| (56, 63) |] in
  Alcotest.(check int) "same width, same reads" s1.Iosim.Stats.block_reads
    s2.Iosim.Stats.block_reads

let test_range_encoded_io_constant () =
  (* Query cost must not depend on the range width: it always reads
     (at most) two rows. *)
  let g = Workload.Gen.uniform ~seed:5 ~n:8192 ~sigma:64 in
  let dev = device ~block_bits:512 ~mem_blocks:8 () in
  let inst = Baselines.Range_encoded.instance dev ~sigma:64 g.Workload.Gen.data in
  let _, s_narrow = Indexing.Instance.run inst ~pool:`Cold [| (3, 4) |] in
  let _, s_wide = Indexing.Instance.run inst ~pool:`Cold [| (1, 62) |] in
  Alcotest.(check int) "wide = narrow" s_narrow.Iosim.Stats.block_reads
    s_wide.Iosim.Stats.block_reads;
  (* And the space is the sigma*n extreme. *)
  let inst_c =
    Baselines.Cbitmap_index.instance
      (device ~block_bits:512 ())
      ~sigma:64 g.Workload.Gen.data
  in
  Alcotest.(check bool) "range encoding much larger" true
    (inst.Indexing.Instance.size_bits
    > 3 * inst_c.Indexing.Instance.size_bits)

let test_binned_reads_fewer_bitmaps_for_wide_ranges () =
  let g = Workload.Gen.uniform ~seed:6 ~n:16_384 ~sigma:256 in
  let dev_c = device ~block_bits:512 ~mem_blocks:512 () in
  let dev_b = device ~block_bits:512 ~mem_blocks:512 () in
  let inst_c =
    Baselines.Cbitmap_index.instance dev_c ~sigma:256 g.Workload.Gen.data
  in
  let inst_b =
    Baselines.Binned_index.instance dev_b ~sigma:256 ~w:16 g.Workload.Gen.data
  in
  let _, s_c = Indexing.Instance.run inst_c ~pool:`Cold [| (0, 191) |] in
  let _, s_b = Indexing.Instance.run inst_b ~pool:`Cold [| (0, 191) |] in
  if not (s_b.Iosim.Stats.bits_read < s_c.Iosim.Stats.bits_read) then
    Alcotest.failf "binned (%d bits) not below per-char (%d bits)"
      s_b.Iosim.Stats.bits_read s_c.Iosim.Stats.bits_read

let test_multires_space_grows_with_levels () =
  let g = Workload.Gen.uniform ~seed:7 ~n:8192 ~sigma:256 in
  let i2 =
    Baselines.Multires_index.instance (device ()) ~sigma:256 ~w:2
      g.Workload.Gen.data
  in
  let i16 =
    Baselines.Multires_index.instance (device ()) ~sigma:256 ~w:16
      g.Workload.Gen.data
  in
  (* w=2 has lg sigma levels, w=16 only 2: more levels, more space. *)
  Alcotest.(check bool) "w2 larger" true
    (i2.Indexing.Instance.size_bits > i16.Indexing.Instance.size_bits)

let test_stream_table_roundtrip () =
  let dev = device () in
  let postings =
    [|
      Cbitmap.Posting.of_list [ 1; 5; 9 ];
      Cbitmap.Posting.empty;
      Cbitmap.Posting.of_list [ 0; 2; 100 ];
    |]
  in
  let tab = Indexing.Stream_table.build dev postings in
  Alcotest.(check int) "length" 3 (Indexing.Stream_table.length tab);
  Alcotest.(check int) "count 0" 3 (Indexing.Stream_table.count tab 0);
  Alcotest.(check int) "count 1" 0 (Indexing.Stream_table.count tab 1);
  let module A = Indexing.Stream_table.Arena in
  let a = A.create () in
  Array.iteri
    (fun i p ->
      A.clear a;
      Alcotest.(check bool) "one stream" true
        (Cbitmap.Posting.equal p (A.union a [ A.read_stream a tab i ])))
    postings;
  (* The slices of one arena stay valid as it grows. *)
  A.clear a;
  let u =
    A.union a (List.map (A.read a) (Indexing.Stream_table.extents tab ~lo:0 ~hi:2))
  in
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 5; 9; 100 ]
    (Cbitmap.Posting.to_list u)

let suite =
  [
    qcheck prop_btree;
    qcheck prop_bitmap;
    qcheck prop_cbitmap;
    qcheck prop_cbitmap_delta;
    qcheck prop_binned_w4;
    qcheck prop_binned_w3;
    qcheck prop_multires_w2;
    qcheck prop_multires_w4;
    qcheck prop_range_encoded;
    qcheck prop_multires_cover;
    Alcotest.test_case "btree shape" `Quick test_btree_shape;
    Alcotest.test_case "btree I/O grows with z" `Quick
      test_btree_io_grows_with_z;
    Alcotest.test_case "uncompressed bitmap I/O independent of density"
      `Quick test_bitmap_io_independent_of_z;
    Alcotest.test_case "range encoding constant I/O, huge space" `Quick
      test_range_encoded_io_constant;
    Alcotest.test_case "binned beats per-char on wide ranges" `Quick
      test_binned_reads_fewer_bitmaps_for_wide_ranges;
    Alcotest.test_case "multires space grows with levels" `Quick
      test_multires_space_grows_with_levels;
    Alcotest.test_case "stream table roundtrip" `Quick
      test_stream_table_roundtrip;
  ]

let prop_wavelet =
  against_naive "wavelet tree matches naive" Baselines.Wavelet.instance

let prop_wavelet_access =
  QCheck.Test.make ~count:100 ~name:"wavelet access recovers the string"
    input_gen
    (fun (sigma, data, _, _) ->
      QCheck.assume (Array.length data > 0);
      let dev = device () in
      let t = Baselines.Wavelet.build dev ~sigma data in
      let ok = ref true in
      Array.iteri
        (fun i c -> if Baselines.Wavelet.access t i <> c then ok := false)
        data;
      !ok)

let test_wavelet_space_compact () =
  (* n lg sigma bits on device, smaller than the compressed bitmap
     index's gamma streams for near-uniform data. *)
  let n = 16384 and sigma = 256 in
  let g = Workload.Gen.uniform ~seed:9 ~n ~sigma in
  let wt = Baselines.Wavelet.instance (device ()) ~sigma g.Workload.Gen.data in
  Alcotest.(check bool) "close to n lg sigma" true
    (wt.Indexing.Instance.size_bits <= n * 8 * 2);
  (* Its logical cost per element is Theta(lg sigma) bit inspections —
     roughly one per level — where the paper's index reads each output
     element once in compressed form. *)
  let dev_w = device ~block_bits:1024 ~mem_blocks:32 () in
  let wt2 = Baselines.Wavelet.instance dev_w ~sigma g.Workload.Gen.data in
  let answers, sw = Indexing.Instance.run wt2 ~pool:`Cold [| (32, 63) |] in
  let answer = answers.(0) in
  let z = Indexing.Answer.cardinal ~n answer in
  let touches = sw.Iosim.Stats.bits_read in
  (* The cover piece for [32..63] sits 3 levels below the root, so
     every reported element walks up 3 levels: ~3 bit inspections per
     element (z·lg(sigma/width) in general). *)
  if touches < 3 * z then
    Alcotest.failf "unexpectedly few bit inspections: %d for z=%d" touches z

let suite =
  suite
  @ [
      qcheck prop_wavelet;
      qcheck prop_wavelet_access;
      Alcotest.test_case "wavelet compact but I/O-heavy" `Quick
        test_wavelet_space_compact;
    ]

let prop_multires_custom_widths =
  against_naive "multires with custom widths matches naive"
    (fun dev ~sigma data ->
      let t =
        Baselines.Multires_index.build_widths dev ~sigma ~widths:[ 1; 2; 8 ]
          data
      in
      {
        Indexing.Instance.name = "multires-custom";
        device = dev;
        n = Array.length data;
        sigma;
        size_bits = Baselines.Multires_index.size_bits t;
        query = (fun ~lo ~hi -> Baselines.Multires_index.query t ~lo ~hi);
        batch = None;
        integrity = None;
      })

let test_multires_widths_validation () =
  let dev = device () in
  Alcotest.check_raises "must start at 1"
    (Invalid_argument "Multires_index.build_widths: widths must start at 1")
    (fun () ->
      ignore
        (Baselines.Multires_index.build_widths dev ~sigma:8 ~widths:[ 2; 4 ]
           [| 0; 1 |]));
  Alcotest.check_raises "must increase"
    (Invalid_argument "Multires_index.build_widths: widths must increase")
    (fun () ->
      ignore
        (Baselines.Multires_index.build_widths dev ~sigma:8 ~widths:[ 1; 4; 4 ]
           [| 0; 1 |]))

let suite =
  suite
  @ [
      qcheck prop_multires_custom_widths;
      Alcotest.test_case "multires widths validation" `Quick
        test_multires_widths_validation;
    ]

let prop_btree_dynamic =
  against_naive "dynamic btree matches naive" Baselines.Btree_dynamic.instance

let prop_btree_dynamic_incremental =
  QCheck.Test.make ~count:75 ~name:"dynamic btree under interleaved inserts"
    QCheck.(
      pair (int_range 1 10)
        (list_of_size (Gen.int_range 0 200) (int_range 0 9)))
    (fun (sigma, inserts) ->
      let dev = device () in
      let t = Baselines.Btree_dynamic.create dev ~sigma ~n_hint:256 in
      let ok = ref true in
      List.iteri
        (fun pos c ->
          let char_ = c mod sigma in
          Baselines.Btree_dynamic.insert t ~char_ ~pos;
          (* Every 32 inserts, validate a random range. *)
          if pos mod 32 = 31 then begin
            let data = Array.of_list (List.filteri (fun i _ -> i <= pos) inserts) in
            let data = Array.map (fun v -> v mod sigma) data in
            let naive =
              Workload.Queries.naive_answer
                { Workload.Gen.sigma; data }
                { Workload.Queries.lo = 0; hi = sigma - 1 }
            in
            let got =
              Indexing.Answer.to_posting ~n:(pos + 1)
                (Baselines.Btree_dynamic.query t ~lo:0 ~hi:(sigma - 1))
            in
            if not (Cbitmap.Posting.equal got naive) then ok := false
          end)
        inserts;
      Alcotest.(check int) "cardinal" (List.length inserts)
        (Baselines.Btree_dynamic.cardinal t);
      !ok)

let test_btree_dynamic_splits () =
  let dev = device ~block_bits:512 () in
  let t = Baselines.Btree_dynamic.create dev ~sigma:16 ~n_hint:4096 in
  for pos = 0 to 4095 do
    Baselines.Btree_dynamic.insert t ~char_:(pos mod 16) ~pos
  done;
  Alcotest.(check bool) "grew" true (Baselines.Btree_dynamic.height t >= 3);
  let p =
    Indexing.Answer.to_posting ~n:4096
      (Baselines.Btree_dynamic.query t ~lo:3 ~hi:3)
  in
  Alcotest.(check int) "one char" 256 (Cbitmap.Posting.cardinal p)

let suite =
  suite
  @ [
      qcheck prop_btree_dynamic;
      qcheck prop_btree_dynamic_incremental;
      Alcotest.test_case "dynamic btree splits" `Quick
        test_btree_dynamic_splits;
    ]

(* PR 7: roaring-style hybrid container baseline. *)

let prop_roaring =
  against_naive "roaring matches naive"
    (Baselines.Roaring_index.instance ?chunk:None)

let prop_roaring_small_chunks =
  (* chunk far below the universe, so streams span many containers and
     the Empty container path is exercised. *)
  against_naive "roaring (chunk=16) matches naive"
    (Baselines.Roaring_index.instance ~chunk:16)

let test_roaring_adapts_per_chunk () =
  (* A stream that is dense in one half and sparse in the other must
     beat both the uncompressed bitmap and the sorted-array extremes:
     the hybrid payload picks per chunk. *)
  let n = 8192 and sigma = 2 in
  let data =
    Array.init n (fun i ->
        if i < n / 2 then (if i mod 2 = 0 then 0 else 1)
        else if i mod 64 = 0 then 0
        else 1)
  in
  let t = Baselines.Roaring_index.build (device ()) ~sigma data in
  let payload = Baselines.Roaring_index.payload_bits t in
  (* Uncompressed: sigma * n payload bits. *)
  Alcotest.(check bool) "below uncompressed bitmaps" true
    (payload < sigma * n);
  (* Pure sorted arrays: 13 bits per position occurrence. *)
  let w = 13 in
  Alcotest.(check bool) "below pure arrays" true (payload < w * n)

let suite =
  suite
  @ [
      qcheck prop_roaring;
      qcheck prop_roaring_small_chunks;
      Alcotest.test_case "roaring adapts per chunk" `Quick
        test_roaring_adapts_per_chunk;
    ]
