type t = {
  device : Iosim.Device.t;
  n : int;
  sigma : int;
  rows : Iosim.Device.region array; (* rows.(a): bitmap of { i | x_i <= a } *)
  frames : Iosim.Frame.t array;
}

let row_magic = 0xB1A1

let build device ~sigma x =
  let n = Array.length x in
  let row_buf a =
    let buf = Bitio.Bitbuf.create ~capacity:n () in
    Array.iter (fun c -> Bitio.Bitbuf.write_bit buf (c <= a)) x;
    buf
  in
  (* Framed rows; rebuilding re-derives the <= a bitmap from the
     retained string. *)
  let frames =
    Iosim.Device.with_component device "payload" (fun () ->
        Array.init sigma (fun a ->
            Iosim.Frame.store ~magic:row_magic ~align_block:true
              ~rebuild:(fun () -> row_buf a)
              device (row_buf a)))
  in
  { device; n; sigma; rows = Array.map Iosim.Frame.payload frames; frames }

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      (* Read row hi and (if lo > 0) row lo-1 in lockstep; emit positions
         set in the former but not the latter. *)
      let d_hi =
        Iosim.Device.decoder t.device ~pos:t.rows.(hi).Iosim.Device.off
      in
      let d_lo =
        if lo = 0 then None
        else
          Some
            (Iosim.Device.decoder t.device
               ~pos:t.rows.(lo - 1).Iosim.Device.off)
      in
      let out = ref [] in
      Obs.Metrics.(in_phase payload) (fun () ->
          let i = ref 0 in
          while !i < t.n do
            let w = min 32 (t.n - !i) in
            let a = Bitio.Decoder.read_bits d_hi w in
            let b =
              match d_lo with
              | None -> 0
              | Some d -> Bitio.Decoder.read_bits d w
            in
            (* Pop set bits highest-first: chunk bit (w - 1 - k) is
               position [i + k], so the msb scan emits positions in
               ascending order. *)
            let diff = ref (a land lnot b) in
            while !diff <> 0 do
              let bit = Bitio.Bitops.msb !diff in
              out := (!i + w - 1 - bit) :: !out;
              diff := !diff lxor (1 lsl bit)
            done;
            i := !i + w
          done);
      Indexing.Answer.Direct
        (Cbitmap.Posting.of_sorted_array (Array.of_list (List.rev !out)))

let size_bits t =
  let bb = Iosim.Device.block_bits t.device in
  Array.fold_left
    (fun acc (r : Iosim.Device.region) -> acc + ((r.len + bb - 1) / bb * bb))
    0 t.rows

let instance device ~sigma x =
  let t = build device ~sigma x in
  {
    Indexing.Instance.name = "range-encoded";
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = None;
    integrity =
      Some
        (Indexing.Integrity.of_frames (fun () -> Array.to_list t.frames));
  }
