type builder = {
  b_name : string;
  b_campaign : bool;
  b_build : Iosim.Device.t -> sigma:int -> int array -> Indexing.Instance.t;
}

(* Bin widths scale with sigma so one entry serves both the sigma=16
   campaigns and the sigma=256 comparisons at their established
   parameters. *)
let all =
  let w_binned sigma = max 3 (sigma / 16) in
  let w_multires sigma = max 2 (sigma / 64) in
  [
    { b_name = "btree"; b_campaign = true;
      b_build = (fun dev ~sigma data -> Baselines.Btree.instance dev ~sigma data) };
    { b_name = "btree-dynamic"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Baselines.Btree_dynamic.instance dev ~sigma data) };
    { b_name = "bitmap"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Baselines.Bitmap_index.instance dev ~sigma data) };
    { b_name = "bitmap-wah"; b_campaign = false;
      b_build =
        (fun dev ~sigma data -> Baselines.Wah_index.instance dev ~sigma data) };
    { b_name = "bitmap-roaring"; b_campaign = false;
      b_build =
        (fun dev ~sigma data -> Baselines.Roaring_index.instance dev ~sigma data) };
    { b_name = "cbitmap"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Baselines.Cbitmap_index.instance dev ~sigma data) };
    { b_name = "binned"; b_campaign = true;
      b_build =
        (fun dev ~sigma data ->
          Baselines.Binned_index.instance dev ~sigma ~w:(w_binned sigma) data) };
    { b_name = "multires"; b_campaign = true;
      b_build =
        (fun dev ~sigma data ->
          Baselines.Multires_index.instance dev ~sigma ~w:(w_multires sigma) data) };
    { b_name = "range-encoded"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Baselines.Range_encoded.instance dev ~sigma data) };
    { b_name = "wavelet"; b_campaign = false;
      b_build = (fun dev ~sigma data -> Baselines.Wavelet.instance dev ~sigma data) };
    { b_name = "alphabet-tree"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Secidx.Alphabet_tree.instance dev ~sigma data) };
    { b_name = "alphabet-doubling"; b_campaign = true;
      b_build =
        (fun dev ~sigma data ->
          Secidx.Alphabet_tree.instance ~schedule:`Doubling dev ~sigma data) };
    { b_name = "static"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Secidx.Static_index.instance dev ~sigma data) };
    { b_name = "append"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Secidx.Append_index.instance dev ~sigma data) };
    { b_name = "dynamic"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Secidx.Dynamic_index.instance dev ~sigma data) };
    { b_name = "buffered-bitmap"; b_campaign = true;
      b_build =
        (fun dev ~sigma data -> Secidx.Buffered_bitmap.instance dev ~sigma data) };
    { b_name = "wal"; b_campaign = true;
      b_build =
        (fun dev ~sigma data ->
          Wal.Store.instance
            (Wal.Store.create ~index_device:dev Wal.Store.default_config ~sigma
               ~data)) };
  ]

type updating = {
  u_apply : Wal.Op.t -> unit;
  u_instance : unit -> Indexing.Instance.t;
}

type updatable = {
  u_name : string;
  u_kinds : Wal.Op.kind list;
  u_start : Iosim.Device.t -> sigma:int -> int array -> updating;
}

let updatable =
  [
    { u_name = "dynamic";
      u_kinds = [ `Set; `Append; `Delete ];
      u_start =
        (fun dev ~sigma data ->
          let t = Secidx.Dynamic_index.build dev ~sigma data in
          {
            u_apply =
              (function
              | Wal.Op.Set { pos; ch } -> Secidx.Dynamic_index.change t ~pos ch
              | Wal.Op.Append { ch } -> Secidx.Dynamic_index.append t ch
              | Wal.Op.Delete { pos } -> Secidx.Dynamic_index.delete t ~pos);
            u_instance = (fun () -> Secidx.Dynamic_index.instance_of t);
          }) };
    { u_name = "append";
      u_kinds = [ `Append ];
      u_start =
        (fun dev ~sigma data ->
          let t = Secidx.Append_index.build dev ~sigma data in
          {
            u_apply =
              (function
              | Wal.Op.Append { ch } -> Secidx.Append_index.append t ch
              | op ->
                  Format.kasprintf invalid_arg "append index: %a" Wal.Op.pp op);
            u_instance = (fun () -> Secidx.Append_index.instance_of t);
          }) };
    { u_name = "wal";
      u_kinds = [ `Set; `Append; `Delete ];
      u_start =
        (fun dev ~sigma data ->
          let s =
            Wal.Store.create ~index_device:dev Wal.Store.default_config ~sigma
              ~data
          in
          {
            u_apply = (fun op -> Wal.Store.update s op);
            u_instance = (fun () -> Wal.Store.instance s);
          }) };
  ]

let campaign =
  List.filter_map
    (fun b -> if b.b_campaign then Some (b.b_name, b.b_build) else None)
    all

let named names =
  List.map (fun name -> List.find (fun b -> b.b_name = name) all) names
