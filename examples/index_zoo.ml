(* The unified view of §1.3: B-trees and uncompressed bitmap indexes
   are the two extremes of secondary indexing; binning and
   multi-resolution bitmaps trade space against query time; the
   paper's structure achieves both optima at once.  This example
   builds every index in the repository over the same skewed column
   and prints a space / query-I/O comparison.

     dune exec examples/index_zoo.exe *)

let () =
  let n = 32768 and sigma = 256 in
  let g = Workload.Gen.zipf ~seed:11 ~n ~sigma ~theta:1.1 () in
  let data = g.Workload.Gen.data in
  let nh0 = Cbitmap.Entropy.nh0_bits ~sigma data in
  Format.printf
    "column: n=%d sigma=%d H0=%.2f bits/symbol (entropy bound %.0f KiB)@.@."
    n sigma (Workload.Gen.h0 g) (nh0 /. 8192.0);

  let builders =
    [
      (fun dev -> Baselines.Btree.instance dev ~sigma data);
      (fun dev -> Baselines.Bitmap_index.instance dev ~sigma data);
      (fun dev -> Baselines.Range_encoded.instance dev ~sigma data);
      (fun dev -> Baselines.Cbitmap_index.instance dev ~sigma data);
      (fun dev -> Baselines.Binned_index.instance dev ~sigma ~w:16 data);
      (fun dev -> Baselines.Multires_index.instance dev ~sigma ~w:4 data);
      (fun dev -> Secidx.Alphabet_tree.instance dev ~sigma data);
      (fun dev -> Secidx.Static_index.instance dev ~sigma data);
    ]
  in
  (* Three query shapes: narrow (2 chars), medium (32), wide (192). *)
  let ranges = [ (10, 11); (64, 95); (32, 223) ] in
  Format.printf "%-20s %12s %10s %10s %10s@." "index" "space(KiB)" "narrow"
    "medium" "wide";
  Format.printf "%-20s %12s %10s %10s %10s@." "" "" "(I/Os)" "(I/Os)" "(I/Os)";
  List.iter
    (fun build ->
      let dev =
        Iosim.Device.create ~block_bits:1024 ~mem_bits:(1024 * 1024) ()
      in
      let inst = build dev in
      let ios =
        List.map
          (fun (lo, hi) ->
            let _, stats =
              Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
            in
            Iosim.Stats.ios stats)
          ranges
      in
      match ios with
      | [ narrow; medium; wide ] ->
          Format.printf "%-20s %12.1f %10d %10d %10d@."
            inst.Indexing.Instance.name
            (float_of_int inst.Indexing.Instance.size_bits /. 8192.0)
            narrow medium wide
      | _ -> assert false)
    builders;
  Format.printf
    "@.(The paper's index should sit near the compressed-bitmap space while@.";
  Format.printf
    " matching or beating every bitmap variant on wide-range query I/O.)@."
