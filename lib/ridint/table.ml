type column = { name : string; sigma : int; values : int array }

type indexed_column = {
  col : column;
  index : Secidx.Static_index.t;
  instance : Indexing.Instance.t;  (** [index], packaged for [Instance.run] *)
  approx : Secidx.Approx_index.t option;
  field_off : int;  (** bit offset of this column's field within a packed row *)
  field_width : int;
}

type t = {
  device : Iosim.Device.t;
  nrows : int;
  cols : indexed_column array;
  row_bits : int;  (** bits per packed row; meaningful when rows stored *)
  rows_region : Iosim.Device.region option;
      (** The heap file (PR 10): every row's column values packed
          side by side, so "accessing the associated data" to filter
          approximate candidates away (§3) is a counted device read
          rather than a free in-memory lookup. *)
}

type condition = { column : string; lo : int; hi : int }

let rows t = t.nrows
let columns t = Array.map (fun ic -> ic.col) t.cols
let device t = t.device
let stores_rows t = t.rows_region <> None
let row_bits t = if stores_rows t then t.row_bits else 0

let validate cols =
  match cols with
  | [] -> invalid_arg "Table.create: no columns"
  | first :: rest ->
      let n = Array.length first.values in
      List.iter
        (fun c ->
          if Array.length c.values <> n then
            invalid_arg "Table.create: column lengths differ")
        rest;
      n

let build_cols ?seed ?c ~approx device cols =
  let off = ref 0 in
  Array.of_list
    (List.map
       (fun col ->
         let index, approx =
           if approx then
             let a =
               Secidx.Approx_index.build ?seed ?c device
                 ~sigma:col.sigma col.values
             in
             (* The approximate index embeds its own exact base index;
                reuse it instead of building a second copy. *)
             (Secidx.Approx_index.base a, Some a)
           else
             ( Secidx.Static_index.build ?c device ~sigma:col.sigma
                 col.values,
               None )
         in
         let field_width = Indexing.Common.bits_for (max 2 col.sigma) in
         let field_off = !off in
         off := field_off + field_width;
         let instance = Secidx.Static_index.instance_of index in
         { col; index; instance; approx; field_off; field_width })
       cols)

(* Pack the rows on the device, row-major: row [r]'s field for column
   [i] sits at [off + r*row_bits + field_off.(i)].  Block-aligned so a
   verification read of row [r] touches exactly the covering block. *)
let store_rows_region device cols nrows row_bits =
  let buf = Bitio.Bitbuf.create ~capacity:(nrows * row_bits) () in
  for r = 0 to nrows - 1 do
    Array.iter
      (fun ic ->
        Bitio.Bitbuf.write_bits buf ~width:ic.field_width ic.col.values.(r))
      cols
  done;
  Iosim.Device.with_component device "rows" (fun () ->
      Iosim.Device.store ~align_block:true device buf)

let create_gen ?seed ?c ?(store_rows = false) ~approx device cols =
  let nrows = validate cols in
  let cols = build_cols ?seed ?c ~approx device cols in
  let row_bits =
    Array.fold_left (fun acc ic -> acc + ic.field_width) 0 cols
  in
  let rows_region =
    if store_rows && nrows > 0 then
      Some (store_rows_region device cols nrows row_bits)
    else None
  in
  { device; nrows; cols; row_bits; rows_region }

let create ?c ?store_rows device cols =
  create_gen ?c ?store_rows ~approx:false device cols

let create_approx ?seed ?c ?store_rows device cols =
  create_gen ?seed ?c ?store_rows ~approx:true device cols

let find_col t name =
  match Array.find_opt (fun ic -> ic.col.name = name) t.cols with
  | Some ic -> ic
  | None -> invalid_arg ("Table: unknown column " ^ name)

let col_index t name = (find_col t name).index
let col_instance t name = (find_col t name).instance
let col_approx t name = (find_col t name).approx
let col_sigma t name = (find_col t name).col.sigma

(* Read one cell of the heap file — the §3 "access to the associated
   data".  Counted device I/O when the rows are stored; the in-memory
   column array otherwise (the seed behaviour, free verification). *)
let read_cell t ic row =
  match t.rows_region with
  | None -> ic.col.values.(row)
  | Some rg ->
      Iosim.Device.read_bits t.device
        ~pos:(rg.Iosim.Device.off + (row * t.row_bits) + ic.field_off)
        ~width:ic.field_width

let cell t ~column ~row = read_cell t (find_col t column) row

(* Uncharged: [naive] is the reference scan, not a query path. *)
let check_condition t cond row =
  let ic = find_col t cond.column in
  let v = ic.col.values.(row) in
  v >= cond.lo && v <= cond.hi

(* Charged variant of {!check_condition} over a disjoint range list —
   what the planner's verification step uses. *)
let check_cell_ranges t ~column ~row ranges =
  let ic = find_col t column in
  let v = read_cell t ic row in
  List.exists (fun (lo, hi) -> v >= lo && v <= hi) ranges

let naive t conds =
  let acc = ref [] in
  for row = t.nrows - 1 downto 0 do
    if List.for_all (fun cond -> check_condition t cond row) conds then
      acc := row :: !acc
  done;
  Cbitmap.Posting.of_sorted_array (Array.of_list !acc)

(* Rows that appear in at least [k] of [postings]. *)
let at_least t ~k postings =
  let hits = Array.make t.nrows 0 in
  List.iter
    (Cbitmap.Posting.iter (fun row -> hits.(row) <- hits.(row) + 1))
    postings;
  let acc = ref [] in
  for row = t.nrows - 1 downto 0 do
    if hits.(row) >= k then acc := row :: !acc
  done;
  Cbitmap.Posting.of_sorted_array (Array.of_list !acc)

let query_at_least t ~k conds =
  if k <= 0 then invalid_arg "Table.query_at_least";
  at_least t ~k
    (List.map
       (fun cond ->
         Indexing.Answer.to_posting ~n:t.nrows
           (Secidx.Static_index.query (find_col t cond.column).index
              ~lo:cond.lo ~hi:cond.hi))
       conds)

let size_bits t =
  Array.fold_left
    (fun acc ic ->
      acc
      + Secidx.Static_index.size_bits ic.index
      + match ic.approx with
        | Some a -> Secidx.Approx_index.hashed_bits a
        | None -> 0)
    0 t.cols

let query_at_least_approx t ~epsilon ~k conds =
  if k <= 0 then invalid_arg "Table.query_at_least_approx";
  let answers =
    List.map
      (fun cond ->
        match (find_col t cond.column).approx with
        | Some a -> Secidx.Approx_index.query a ~epsilon ~lo:cond.lo ~hi:cond.hi
        | None -> invalid_arg "Table.query_at_least_approx: built without approx")
      conds
  in
  (* Approximate hit counting: a row that truly satisfies >= k
     conditions also approximately satisfies them (no false
     negatives), so thresholding the approximate counts keeps every
     true answer. *)
  let candidates =
    at_least t ~k
      (List.map (fun a -> Secidx.Approx_index.candidates a ~n:t.nrows) answers)
  in
  (* Charged verification: on a table that stores its rows these are
     the counted reads of §3's "accessing the associated data". *)
  let verified =
    Cbitmap.Posting.filter
      (fun row ->
        let sat =
          List.length
            (List.filter
               (fun cond ->
                 check_cell_ranges t ~column:cond.column ~row
                   [ (cond.lo, cond.hi) ])
               conds)
        in
        sat >= k)
      candidates
  in
  (verified, Cbitmap.Posting.cardinal candidates)
