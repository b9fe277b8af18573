(* Unit and property tests for the bit-level substrate. *)

let qcheck = QCheck_alcotest.to_alcotest

let test_write_read_bits () =
  let buf = Bitio.Bitbuf.create () in
  Bitio.Bitbuf.write_bits buf ~width:5 0b10110;
  Bitio.Bitbuf.write_bits buf ~width:3 0b011;
  Alcotest.(check int) "length" 8 (Bitio.Bitbuf.length buf);
  Alcotest.(check int) "first 5" 0b10110
    (Bitio.Bitbuf.read_bits buf ~pos:0 ~width:5);
  Alcotest.(check int) "next 3" 0b011
    (Bitio.Bitbuf.read_bits buf ~pos:5 ~width:3);
  Alcotest.(check int) "straddle" 0b1100
    (Bitio.Bitbuf.read_bits buf ~pos:2 ~width:4)

let test_write_bit_order () =
  let buf = Bitio.Bitbuf.create () in
  List.iter (Bitio.Bitbuf.write_bit buf) [ true; false; true; true ];
  Alcotest.(check bool) "bit 0" true (Bitio.Bitbuf.get_bit buf 0);
  Alcotest.(check bool) "bit 1" false (Bitio.Bitbuf.get_bit buf 1);
  Alcotest.(check int) "as int" 0b1011
    (Bitio.Bitbuf.read_bits buf ~pos:0 ~width:4)

let test_append_aligned () =
  let a = Bitio.Bitbuf.of_int ~width:16 0xbeef in
  let b = Bitio.Bitbuf.of_int ~width:8 0x42 in
  Bitio.Bitbuf.append a b;
  Alcotest.(check int) "len" 24 (Bitio.Bitbuf.length a);
  Alcotest.(check int) "tail" 0x42 (Bitio.Bitbuf.read_bits a ~pos:16 ~width:8)

let test_append_unaligned () =
  let a = Bitio.Bitbuf.of_int ~width:3 0b101 in
  let b = Bitio.Bitbuf.of_int ~width:7 0b1100110 in
  Bitio.Bitbuf.append a b;
  Alcotest.(check int) "len" 10 (Bitio.Bitbuf.length a);
  Alcotest.(check int) "all" 0b1011100110
    (Bitio.Bitbuf.read_bits a ~pos:0 ~width:10)

let test_to_bytes_padding () =
  let buf = Bitio.Bitbuf.of_int ~width:10 0b1111111111 in
  let bytes = Bitio.Bitbuf.to_bytes buf in
  Alcotest.(check int) "nbytes" 2 (Bytes.length bytes);
  Alcotest.(check int) "padded" 0xc0 (Char.code (Bytes.get bytes 1))

let test_blit_to_bytes () =
  let buf = Bitio.Bitbuf.of_int ~width:12 0xabc in
  let dst = Bytes.make 4 '\xff' in
  Bitio.Bitbuf.blit_to_bytes buf dst ~dst_bit:8;
  Alcotest.(check int) "untouched before" 0xff (Char.code (Bytes.get dst 0));
  Alcotest.(check int) "first byte" 0xab (Char.code (Bytes.get dst 1));
  (* Low nibble of byte 2 must keep its old bits. *)
  Alcotest.(check int) "merged byte" 0xcf (Char.code (Bytes.get dst 2));
  Alcotest.(check int) "untouched after" 0xff (Char.code (Bytes.get dst 3))

let test_reader_of_bitbuf () =
  let buf = Bitio.Bitbuf.of_int ~width:20 0xabcde in
  let r = Oracle.Reader.of_bitbuf buf in
  Alcotest.(check int) "8" 0xab (r.Oracle.Reader.read_bits 8);
  Alcotest.(check int) "pos" 8 (r.Oracle.Reader.bit_pos ());
  r.Oracle.Reader.seek 12;
  Alcotest.(check int) "after seek" 0xde (r.Oracle.Reader.read_bits 8)

let test_reader_of_bytes () =
  let r = Oracle.Reader.of_bytes (Bytes.of_string "\xf0\x0f") in
  Alcotest.(check int) "first" 0xf0 (r.Oracle.Reader.read_bits 8);
  Alcotest.(check int) "second" 0x0f (r.Oracle.Reader.read_bits 8);
  (* Wide, unaligned reads go through Bitops.get_bits now; the
     width/bounds checks must survive the rewrite. *)
  let r = Oracle.Reader.of_bytes (Bytes.of_string "\xf0\x0f\xaa\x55\xc3") in
  Oracle.Reader.skip r 3;
  Alcotest.(check int) "wide unaligned" 0b10000000011111010101001010101
    (r.Oracle.Reader.read_bits 29);
  Alcotest.(check int) "pos" 32 (r.Oracle.Reader.bit_pos ());
  Alcotest.check_raises "width > 62" (Invalid_argument "Reader.of_bytes: width")
    (fun () -> ignore (r.Oracle.Reader.read_bits 63));
  Alcotest.check_raises "past end"
    (Invalid_argument "Reader.of_bytes: past end") (fun () ->
      ignore (r.Oracle.Reader.read_bits 9))

let test_gamma_known () =
  (* Known gamma codewords: 1 -> "1", 2 -> "010", 3 -> "011",
     4 -> "00100". *)
  let enc v =
    let buf = Bitio.Bitbuf.create () in
    Bitio.Codes.encode_gamma buf v;
    Format.asprintf "%a" Bitio.Bitbuf.pp buf
  in
  Alcotest.(check string) "gamma 1" "1" (enc 1);
  Alcotest.(check string) "gamma 2" "010" (enc 2);
  Alcotest.(check string) "gamma 3" "011" (enc 3);
  Alcotest.(check string) "gamma 4" "00100" (enc 4)

let test_unary_roundtrip () =
  let buf = Bitio.Bitbuf.create () in
  List.iter (Bitio.Codes.encode_unary buf) [ 0; 3; 1; 7; 100 ];
  let d = Bitio.Decoder.of_bitbuf buf in
  List.iter
    (fun v -> Alcotest.(check int) "unary" v (Bitio.Codes.decode_unary d))
    [ 0; 3; 1; 7; 100 ]

let test_log2 () =
  Alcotest.(check int) "floor 1" 0 (Bitio.Codes.floor_log2 1);
  Alcotest.(check int) "floor 7" 2 (Bitio.Codes.floor_log2 7);
  Alcotest.(check int) "floor 8" 3 (Bitio.Codes.floor_log2 8);
  Alcotest.(check int) "ceil 1" 0 (Bitio.Codes.ceil_log2 1);
  Alcotest.(check int) "ceil 7" 3 (Bitio.Codes.ceil_log2 7);
  Alcotest.(check int) "ceil 8" 3 (Bitio.Codes.ceil_log2 8);
  Alcotest.(check int) "ceil 9" 4 (Bitio.Codes.ceil_log2 9)

(* Property: every code round-trips a sequence of values and reports
   its exact encoded size. *)
let roundtrip_prop name gen encode decode size =
  QCheck.Test.make ~count:200 ~name (QCheck.list_of_size (QCheck.Gen.return 20) gen)
    (fun vs ->
      let buf = Bitio.Bitbuf.create () in
      let expected_bits = List.fold_left (fun acc v -> acc + size v) 0 vs in
      List.iter (encode buf) vs;
      if Bitio.Bitbuf.length buf <> expected_bits then false
      else begin
        let d = Bitio.Decoder.of_bitbuf buf in
        List.for_all (fun v -> decode d = v) vs
      end)

let pos_gen = QCheck.int_range 1 (1 lsl 50)
let small_pos_gen = QCheck.int_range 1 1_000_000
let nat_gen = QCheck.int_range 0 100_000

let prop_gamma =
  roundtrip_prop "gamma roundtrip+size"
    (QCheck.oneof [ small_pos_gen; pos_gen ])
    Bitio.Codes.encode_gamma Bitio.Codes.decode_gamma Bitio.Codes.gamma_size

let prop_delta =
  roundtrip_prop "delta roundtrip+size"
    (QCheck.oneof [ small_pos_gen; pos_gen ])
    Bitio.Codes.encode_delta Bitio.Codes.decode_delta Bitio.Codes.delta_size

let prop_rice =
  roundtrip_prop "rice k=4 roundtrip+size" (QCheck.int_range 0 4096)
    (fun buf v -> Bitio.Codes.encode_rice buf ~k:4 v)
    (Bitio.Codes.decode_rice ~k:4)
    (Bitio.Codes.rice_size ~k:4)

let prop_fixed =
  roundtrip_prop "fixed w=17 roundtrip" (QCheck.int_range 0 ((1 lsl 17) - 1))
    (fun buf v -> Bitio.Codes.encode_fixed buf ~width:17 v)
    (Bitio.Codes.decode_fixed ~width:17)
    (Bitio.Codes.fixed_size ~width:17)

let prop_mixed_stream =
  QCheck.Test.make ~count:100 ~name:"mixed code stream roundtrip"
    QCheck.(list_of_size (Gen.return 30) (pair (int_range 0 3) small_pos_gen))
    (fun items ->
      let buf = Bitio.Bitbuf.create () in
      List.iter
        (fun (tag, v) ->
          match tag with
          | 0 -> Bitio.Codes.encode_gamma buf v
          | 1 -> Bitio.Codes.encode_delta buf v
          | 2 -> Bitio.Codes.encode_rice buf ~k:6 v
          | _ -> Bitio.Codes.encode_fixed buf ~width:21 (v land 0x1fffff))
        items;
      let d = Bitio.Decoder.of_bitbuf buf in
      List.for_all
        (fun (tag, v) ->
          match tag with
          | 0 -> Bitio.Codes.decode_gamma d = v
          | 1 -> Bitio.Codes.decode_delta d = v
          | 2 -> Bitio.Codes.decode_rice d ~k:6 = v
          | _ -> Bitio.Codes.decode_fixed d ~width:21 = v land 0x1fffff)
        items)

let prop_write_read_bits =
  QCheck.Test.make ~count:200 ~name:"bitbuf write_bits/read_bits agree"
    QCheck.(list_of_size (Gen.return 15) (pair (int_range 1 30) nat_gen))
    (fun items ->
      let items = List.map (fun (w, v) -> (w, v land ((1 lsl w) - 1))) items in
      let buf = Bitio.Bitbuf.create () in
      List.iter (fun (w, v) -> Bitio.Bitbuf.write_bits buf ~width:w v) items;
      let pos = ref 0 in
      List.for_all
        (fun (w, v) ->
          let got = Bitio.Bitbuf.read_bits buf ~pos:!pos ~width:w in
          pos := !pos + w;
          got = v)
        items)

let prop_append_equiv =
  QCheck.Test.make ~count:200 ~name:"append equals bit-by-bit copy"
    QCheck.(pair (list (int_range 0 1)) (list (int_range 0 1)))
    (fun (xs, ys) ->
      let mk bits =
        let b = Bitio.Bitbuf.create () in
        List.iter (fun v -> Bitio.Bitbuf.write_bit b (v = 1)) bits;
        b
      in
      let a = mk xs and b = mk ys in
      Bitio.Bitbuf.append a b;
      let expected = mk (xs @ ys) in
      Bitio.Bitbuf.equal a expected)

(* --- differential tests: word-at-a-time engine vs the retained
   per-bit oracle (Oracle.Bitops / write_bit-get_bit loops). --- *)

let random_bytes_gen len =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (return len)))

(* Random (bytes, pos, width) with widths biased to include the 61/62
   extreme and positions that cross two or more 8-byte words. *)
let bits_case_gen =
  QCheck.Gen.(
    random_bytes_gen 40 >>= fun data ->
    oneof [ int_range 0 62; int_range 61 62 ] >>= fun width ->
    int_range 0 ((8 * 40) - width) >>= fun pos -> return (data, pos, width))

let bits_case =
  QCheck.make
    ~print:(fun (data, pos, width) ->
      Printf.sprintf "pos=%d width=%d data=%s" pos width
        (String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
           (List.of_seq (Bytes.to_seq data)))))
    bits_case_gen

let prop_bitops_get_matches_naive =
  QCheck.Test.make ~count:2000 ~name:"Bitops.get_bits = Naive.get_bits"
    bits_case
    (fun (data, pos, width) ->
      Bitio.Bitops.get_bits data ~pos ~width
      = Oracle.Bitops.get_bits data ~pos ~width)

let prop_bitops_set_matches_naive =
  QCheck.Test.make ~count:2000 ~name:"Bitops.set_bits = Naive.set_bits"
    QCheck.(pair bits_case (int_range 0 max_int))
    (fun ((data, pos, width), v) ->
      let v = if width = 0 then 0 else v land ((1 lsl width) - 1) in
      let a = Bytes.copy data and b = Bytes.copy data in
      Bitio.Bitops.set_bits a ~pos ~width v;
      Oracle.Bitops.set_bits b ~pos ~width v;
      Bytes.equal a b)

let prop_bitops_blit_matches_naive =
  QCheck.Test.make ~count:2000 ~name:"Bitops.blit = Naive.blit"
    QCheck.(
      make
        Gen.(
          random_bytes_gen 64 >>= fun src ->
          random_bytes_gen 64 >>= fun dst ->
          int_range 0 300 >>= fun len ->
          int_range 0 ((8 * 64) - len) >>= fun src_pos ->
          int_range 0 ((8 * 64) - len) >>= fun dst_pos ->
          return (src, dst, src_pos, dst_pos, len)))
    (fun (src, dst, src_pos, dst_pos, len) ->
      let a = Bytes.copy dst and b = Bytes.copy dst in
      Bitio.Bitops.blit src ~src_pos a ~dst_pos ~len;
      Oracle.Bitops.blit src ~src_pos b ~dst_pos ~len;
      Bytes.equal a b)

let prop_popcount_matches_naive =
  QCheck.Test.make ~count:2000 ~name:"SWAR popcount = naive popcount"
    QCheck.(
      oneof
        [
          int;
          int_range 0 255;
          always max_int;
          always min_int;
          always (-1);
          always 0;
        ])
    (fun x -> Bitio.Bitops.popcount x = Oracle.Bitops.popcount x)

let naive_bitbuf_read buf ~pos ~width =
  let v = ref 0 in
  for i = pos to pos + width - 1 do
    v := (!v lsl 1) lor (if Bitio.Bitbuf.get_bit buf i then 1 else 0)
  done;
  !v

(* A random buffer long enough that wide reads cross 2+ words. *)
let random_buf_gen =
  QCheck.Gen.(
    list_size (int_range 1 40) (int_range 0 ((1 lsl 30) - 1)) >>= fun chunks ->
    let buf = Bitio.Bitbuf.create () in
    List.iter (fun v -> Bitio.Bitbuf.write_bits buf ~width:30 v) chunks;
    return buf)

let prop_bitbuf_read_matches_naive =
  QCheck.Test.make ~count:1000
    ~name:"Bitbuf.read_bits = per-bit assembly (widths up to 62)"
    QCheck.(
      make
        Gen.(
          random_buf_gen >>= fun buf ->
          let n = Bitio.Bitbuf.length buf in
          int_range 0 (min 62 n) >>= fun width ->
          int_range 0 (n - width) >>= fun pos -> return (buf, pos, width)))
    (fun (buf, pos, width) ->
      Bitio.Bitbuf.read_bits buf ~pos ~width = naive_bitbuf_read buf ~pos ~width)

let prop_bitbuf_write_matches_naive =
  QCheck.Test.make ~count:500
    ~name:"Bitbuf.write_bits = per-bit write_bit (random widths/alignment)"
    QCheck.(list (pair (int_range 0 62) (int_range 0 max_int)))
    (fun items ->
      let items =
        List.map
          (fun (w, v) -> (w, if w = 0 then 0 else v land ((1 lsl w) - 1)))
          items
      in
      let a = Bitio.Bitbuf.create () and b = Bitio.Bitbuf.create () in
      List.iter
        (fun (w, v) ->
          Bitio.Bitbuf.write_bits a ~width:w v;
          for j = w - 1 downto 0 do
            Bitio.Bitbuf.write_bit b ((v lsr j) land 1 = 1)
          done)
        items;
      Bitio.Bitbuf.equal a b)

let prop_bitbuf_blit_matches_naive =
  QCheck.Test.make ~count:1000 ~name:"Bitbuf.blit = per-bit copy"
    QCheck.(
      make
        Gen.(
          random_buf_gen >>= fun src ->
          random_buf_gen >>= fun dst ->
          let sn = Bitio.Bitbuf.length src and dn = Bitio.Bitbuf.length dst in
          int_range 0 sn >>= fun len ->
          int_range 0 (sn - len) >>= fun src_bit ->
          int_range 0 dn >>= fun dst_bit ->
          return (src, dst, src_bit, dst_bit, len)))
    (fun (src, dst, src_bit, dst_bit, len) ->
      let expected = Bitio.Bitbuf.create () in
      let dn = Bitio.Bitbuf.length dst in
      for i = 0 to max dn (dst_bit + len) - 1 do
        if i >= dst_bit && i < dst_bit + len then
          Bitio.Bitbuf.write_bit expected
            (Bitio.Bitbuf.get_bit src (src_bit + (i - dst_bit)))
        else if i < dn then
          Bitio.Bitbuf.write_bit expected (Bitio.Bitbuf.get_bit dst i)
        else Bitio.Bitbuf.write_bit expected false
      done;
      Bitio.Bitbuf.blit src ~src_bit dst ~dst_bit ~len;
      Bitio.Bitbuf.equal dst expected)

let prop_blit_to_bytes_matches_naive =
  QCheck.Test.make ~count:1000
    ~name:"blit_to_bytes = per-bit merge at any alignment"
    QCheck.(
      make
        Gen.(
          random_buf_gen >>= fun buf ->
          random_bytes_gen 200 >>= fun dst ->
          int_range 0 ((8 * 200) - Bitio.Bitbuf.length buf) >>= fun dst_bit ->
          return (buf, dst, dst_bit)))
    (fun (buf, dst, dst_bit) ->
      let a = Bytes.copy dst and b = Bytes.copy dst in
      Bitio.Bitbuf.blit_to_bytes buf a ~dst_bit;
      for i = 0 to Bitio.Bitbuf.length buf - 1 do
        Oracle.Bitops.set_bit b (dst_bit + i) (Bitio.Bitbuf.get_bit buf i)
      done;
      Bytes.equal a b)

let prop_append_bytes =
  QCheck.Test.make ~count:1000
    ~name:"append_bytes agrees with per-bit append"
    QCheck.(
      make
        Gen.(
          random_bytes_gen 64 >>= fun src ->
          int_range 0 200 >>= fun len ->
          int_range 0 ((8 * 64) - len) >>= fun src_bit ->
          int_range 0 20 >>= fun prefix ->
          return (src, src_bit, len, prefix)))
    (fun (src, src_bit, len, prefix) ->
      let a = Bitio.Bitbuf.create () and b = Bitio.Bitbuf.create () in
      for i = 0 to prefix - 1 do
        Bitio.Bitbuf.write_bit a (i land 1 = 0);
        Bitio.Bitbuf.write_bit b (i land 1 = 0)
      done;
      Bitio.Bitbuf.append_bytes a src ~src_bit ~len;
      for i = 0 to len - 1 do
        Bitio.Bitbuf.write_bit b (Oracle.Bitops.get_bit src (src_bit + i))
      done;
      Bitio.Bitbuf.equal a b)

let prop_equal_matches_bitwise =
  QCheck.Test.make ~count:1000 ~name:"byte-wise equal = bit-wise equal"
    QCheck.(pair (list (int_range 0 1)) (list (int_range 0 1)))
    (fun (xs, ys) ->
      let mk bits =
        let b = Bitio.Bitbuf.create () in
        List.iter (fun v -> Bitio.Bitbuf.write_bit b (v = 1)) bits;
        b
      in
      let a = mk xs and b = mk ys in
      let bitwise =
        List.length xs = List.length ys && List.for_all2 ( = ) xs ys
      in
      Bitio.Bitbuf.equal a b = bitwise)

(* --- the writer against the per-bit writer (Oracle.Bitbuf) --- *)

(* One writer step; positions that depend on the buffer's current
   length are drawn as raw ints and reduced when the step runs. *)
type write_op =
  | Bits of int * int  (** width, value (masked to the width) *)
  | Bit of bool
  | Append of (int * int) list  (** a fresh source, as [Bits] steps *)
  | Append_self
  | Append_bytes of bytes * int * int  (** source, start bit, length *)
  | Blit of (int * int) list * int * int * int
      (** source as [Bits] steps, start bit, length, destination bit *)
  | Reset

let width_gen =
  QCheck.Gen.(
    frequency
      [ (3, int_range 0 62); (2, oneofl [ 0; 1; 7; 8; 55; 56; 57; 58; 61; 62 ]) ])

let bits_step_gen =
  QCheck.Gen.(
    pair width_gen (int_range 0 max_int) >|= fun (w, v) ->
    (w, if w = 0 then 0 else v land ((1 lsl w) - 1)))

let write_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, bits_step_gen >|= fun (w, v) -> Bits (w, v));
        (2, bool >|= fun b -> Bit b);
        (1, list_size (int_range 0 4) bits_step_gen >|= fun l -> Append l);
        (1, return Append_self);
        ( 1,
          random_bytes_gen 24 >>= fun src ->
          int_range 0 160 >>= fun len ->
          int_range 0 ((8 * 24) - len) >|= fun src_bit ->
          Append_bytes (src, src_bit, len) );
        ( 1,
          list_size (int_range 1 4) bits_step_gen >>= fun l ->
          triple nat nat nat >|= fun (a, b, c) -> Blit (l, a, b, c) );
        (1, return Reset);
      ])

let print_op = function
  | Bits (w, v) -> Printf.sprintf "bits %d %x" w v
  | Bit b -> Printf.sprintf "bit %b" b
  | Append l -> Printf.sprintf "append %d chunks" (List.length l)
  | Append_self -> "append self"
  | Append_bytes (_, b, l) -> Printf.sprintf "append_bytes %d %d" b l
  | Blit (l, a, b, c) ->
      Printf.sprintf "blit %d chunks %d %d %d" (List.length l) a b c
  | Reset -> "reset"

let both_from steps =
  let a = Bitio.Bitbuf.create ~capacity:1 () and r = Oracle.Bitbuf.create () in
  List.iter
    (fun (w, v) ->
      Bitio.Bitbuf.write_bits a ~width:w v;
      Oracle.Bitbuf.write_bits r ~width:w v)
    steps;
  (a, r)

let apply_op a r = function
  | Bits (w, v) ->
      Bitio.Bitbuf.write_bits a ~width:w v;
      Oracle.Bitbuf.write_bits r ~width:w v
  | Bit b ->
      Bitio.Bitbuf.write_bit a b;
      Oracle.Bitbuf.write_bit r b
  | Append steps ->
      let sa, sr = both_from steps in
      Bitio.Bitbuf.append a sa;
      Oracle.Bitbuf.append r sr
  | Append_self ->
      (* Skipped on long buffers, so repeated doubling stays small. *)
      if Bitio.Bitbuf.length a <= 4096 then begin
        Bitio.Bitbuf.append a a;
        Oracle.Bitbuf.append r r
      end
  | Append_bytes (src, src_bit, len) ->
      Bitio.Bitbuf.append_bytes a src ~src_bit ~len;
      Oracle.Bitbuf.append_bytes r src ~src_bit ~len
  | Blit (steps, x, y, z) ->
      let sa, sr = both_from steps in
      let sn = Bitio.Bitbuf.length sa in
      let len = x mod (sn + 1) in
      let src_bit = y mod (sn - len + 1) in
      let dst_bit = z mod (Bitio.Bitbuf.length a + 1) in
      Bitio.Bitbuf.blit sa ~src_bit a ~dst_bit ~len;
      Oracle.Bitbuf.blit sr ~src_bit r ~dst_bit ~len
  | Reset ->
      Bitio.Bitbuf.reset a;
      Oracle.Bitbuf.reset r

(* Same bits as the reference, every backing bit past [length] zero,
   and at least 8 backing bytes from the byte holding bit [length]. *)
let writer_agrees a r =
  let n = Bitio.Bitbuf.length a in
  let data = Bitio.Bitbuf.backing a in
  n = Oracle.Bitbuf.length r
  && Format.asprintf "%a" Bitio.Bitbuf.pp a = Oracle.Bitbuf.to_string r
  && Bytes.length data >= (n lsr 3) + 8
  &&
  let tail_zero = ref true in
  for i = n to (8 * Bytes.length data) - 1 do
    if Oracle.Bitops.get_bit data i then tail_zero := false
  done;
  !tail_zero

let prop_writer_matches_perbit =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"Bitbuf writers = per-bit writer, zero tail after every step"
    QCheck.(
      make
        ~print:(fun (cap, ops) ->
          Printf.sprintf "capacity=%d [%s]" cap
            (String.concat "; " (List.map print_op ops)))
        Gen.(pair (int_range 1 16) (list_size (int_range 1 40) write_op_gen)))
    (fun (capacity, ops) ->
      let a = Bitio.Bitbuf.create ~capacity () in
      let r = Oracle.Bitbuf.create () in
      writer_agrees a r
      && List.for_all
           (fun op ->
             apply_op a r op;
             writer_agrees a r)
           ops)

(* Every codeword length from 1 to 123 bits: v = 2^k + m for k in
   0..61, with m at the bottom, the middle and the top of the octave
   and two seeded draws, written after 0..7 bits so every alignment is
   covered (2k+1 crosses the 56-bit store at k = 28 and the 62-bit
   write at k = 31). *)
let test_gamma_matches_oracle () =
  let rng = Hashing.Universal.Rng.create ~seed:26 in
  for k = 0 to 61 do
    let base = 1 lsl k in
    let top = base + (base - 1) in
    let draw () = base + Hashing.Universal.Rng.below rng base in
    List.iter
      (fun v ->
        for prefix = 0 to 7 do
          let a = Bitio.Bitbuf.create ~capacity:1 () in
          let b = Bitio.Bitbuf.create ~capacity:1 () in
          Bitio.Bitbuf.write_bits a ~width:prefix ((1 lsl prefix) - 1);
          Bitio.Bitbuf.write_bits b ~width:prefix ((1 lsl prefix) - 1);
          Bitio.Codes.encode_gamma a v;
          Oracle.Codes.encode_gamma b v;
          if not (Bitio.Bitbuf.equal a b) then
            Alcotest.failf "gamma %d (k=%d) after %d bits" v k prefix;
          let rest = 8 * Bytes.length (Bitio.Bitbuf.backing a) in
          for i = Bitio.Bitbuf.length a to rest - 1 do
            if Oracle.Bitops.get_bit (Bitio.Bitbuf.backing a) i then
              Alcotest.failf "gamma %d: bit %d past the end is set" v i
          done
        done)
      [ base; base + (base / 2); top; draw (); draw () ]
  done

(* The bulk loop behind Gap_codec.encode writes what encode_gamma
   writes gap by gap. *)
let prop_gamma_gaps =
  QCheck.Test.make ~count:300 ~name:"encode_gamma_gaps = encode_gamma per gap"
    QCheck.(
      pair (int_range (-1) 1000)
        (list (oneof [ int_range 1 100; int_range 1 (1 lsl 40) ])))
    (fun (prev, gaps) ->
      let a = Array.of_list gaps in
      for i = 0 to Array.length a - 1 do
        a.(i) <- (if i = 0 then prev else a.(i - 1)) + a.(i)
      done;
      let x = Bitio.Bitbuf.create ~capacity:1 () in
      let y = Bitio.Bitbuf.create ~capacity:1 () in
      Bitio.Codes.encode_gamma_gaps x ~prev a;
      List.iter (Oracle.Codes.encode_gamma y) gaps;
      Bitio.Bitbuf.equal x y)

let test_width_61_62_crossing () =
  (* Reads of width 61/62 that start mid-byte necessarily span 9 bytes
     (2+ 64-bit words); check them against per-bit assembly. *)
  let buf = Bitio.Bitbuf.create () in
  for i = 0 to 40 do
    Bitio.Bitbuf.write_bits buf ~width:31 ((i * 0x2C9277B5) land 0x7fffffff)
  done;
  List.iter
    (fun width ->
      List.iter
        (fun pos ->
          Alcotest.(check int)
            (Printf.sprintf "pos=%d width=%d" pos width)
            (naive_bitbuf_read buf ~pos ~width)
            (Bitio.Bitbuf.read_bits buf ~pos ~width))
        [ 0; 1; 7; 63; 65; 127; 130 ])
    [ 61; 62 ]

let test_append_self () =
  let buf = Bitio.Bitbuf.of_int ~width:11 0b10110011101 in
  Bitio.Bitbuf.append buf buf;
  Alcotest.(check int) "len doubles" 22 (Bitio.Bitbuf.length buf);
  Alcotest.(check int) "second copy" 0b10110011101
    (Bitio.Bitbuf.read_bits buf ~pos:11 ~width:11)

let test_blit_basic () =
  let src = Bitio.Bitbuf.of_int ~width:12 0xabc in
  let dst = Bitio.Bitbuf.of_int ~width:20 0 in
  Bitio.Bitbuf.blit src ~src_bit:4 dst ~dst_bit:3 ~len:8;
  Alcotest.(check int) "copied" 0xbc (Bitio.Bitbuf.read_bits dst ~pos:3 ~width:8);
  Alcotest.(check int) "prefix preserved" 0
    (Bitio.Bitbuf.read_bits dst ~pos:0 ~width:3);
  Alcotest.(check int) "length unchanged" 20 (Bitio.Bitbuf.length dst);
  (* Extending blit grows the buffer. *)
  Bitio.Bitbuf.blit src ~src_bit:0 dst ~dst_bit:18 ~len:12;
  Alcotest.(check int) "grown" 30 (Bitio.Bitbuf.length dst);
  Alcotest.(check int) "tail" 0xabc (Bitio.Bitbuf.read_bits dst ~pos:18 ~width:12)

let suite =
  [
    Alcotest.test_case "write/read bits" `Quick test_write_read_bits;
    Alcotest.test_case "width 61/62 word crossings" `Quick
      test_width_61_62_crossing;
    Alcotest.test_case "append self" `Quick test_append_self;
    Alcotest.test_case "blit basics" `Quick test_blit_basic;
    qcheck prop_bitops_get_matches_naive;
    qcheck prop_bitops_set_matches_naive;
    qcheck prop_bitops_blit_matches_naive;
    qcheck prop_popcount_matches_naive;
    qcheck prop_bitbuf_read_matches_naive;
    qcheck prop_bitbuf_write_matches_naive;
    qcheck prop_bitbuf_blit_matches_naive;
    qcheck prop_blit_to_bytes_matches_naive;
    qcheck prop_append_bytes;
    qcheck prop_equal_matches_bitwise;
    qcheck prop_writer_matches_perbit;
    Alcotest.test_case "gamma = oracle, every codeword length" `Quick
      test_gamma_matches_oracle;
    qcheck prop_gamma_gaps;
    Alcotest.test_case "bit order msb-first" `Quick test_write_bit_order;
    Alcotest.test_case "append aligned" `Quick test_append_aligned;
    Alcotest.test_case "append unaligned" `Quick test_append_unaligned;
    Alcotest.test_case "to_bytes padding" `Quick test_to_bytes_padding;
    Alcotest.test_case "blit_to_bytes" `Quick test_blit_to_bytes;
    Alcotest.test_case "reader over bitbuf" `Quick test_reader_of_bitbuf;
    Alcotest.test_case "reader over bytes" `Quick test_reader_of_bytes;
    Alcotest.test_case "gamma known codewords" `Quick test_gamma_known;
    Alcotest.test_case "unary roundtrip" `Quick test_unary_roundtrip;
    Alcotest.test_case "log2 helpers" `Quick test_log2;
    qcheck prop_gamma;
    qcheck prop_delta;
    qcheck prop_rice;
    qcheck prop_fixed;
    qcheck prop_mixed_stream;
    qcheck prop_write_read_bits;
    qcheck prop_append_equiv;
  ]
