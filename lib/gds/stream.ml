type element = {
  layer : int;
  datatype : int;
  xy : (int * int) list;
}

type structure = { sname : string; elements : element list }

type library = {
  libname : string;
  user_unit_m : float;
  structures : structure list;
}

let element_of_rect ~layer (r : Geom.Rect.t) =
  {
    layer;
    datatype = 0;
    xy =
      [
        (r.Geom.Rect.x0, r.Geom.Rect.y0);
        (r.Geom.Rect.x1, r.Geom.Rect.y0);
        (r.Geom.Rect.x1, r.Geom.Rect.y1);
        (r.Geom.Rect.x0, r.Geom.Rect.y1);
        (r.Geom.Rect.x0, r.Geom.Rect.y0);
      ];
  }

let user_unit_m (rules : Pdk.Rules.t) = rules.Pdk.Rules.lambda_nm *. 1e-9

let library ~rules ~name cells =
  let structures =
    List.map
      (fun (sname, layers) ->
        let elements =
          List.concat_map
            (fun (layer, region) ->
              List.map
                (element_of_rect ~layer:(Pdk.Layer.gds_number layer))
                (Geom.Region.rects region))
            layers
        in
        { sname; elements })
      cells
  in
  { libname = name; user_unit_m = user_unit_m rules; structures }

(* The encoder.  A first pass sums the exact byte length of every record
   (and rejects any record too long for its 16-bit length field); the
   second fills one [Bytes] of that length in place, so no intermediate
   record, coordinate list or growing buffer is ever built. *)

type layer = {
  number : int;
  blocks : Geom.Rect.t array array;
  dx : int array;
  dy : int array;
}

type body = Layers of layer array | Elements of element list

let max_record = 0xFFFF

(* data-type codes of the record header *)
let no_data = 0
let i16 = 2
let i32 = 3
let real8 = 5
let ascii = 6

(* BOUNDARY 4 + LAYER 6 + DATATYPE 6 + XY (4 + 5 points x 8) + ENDEL 4 *)
let rect_bytes = 64
let timestamp = [ 2009; 3; 16; 0; 0; 0 ]
let bgn_bytes = 4 + (2 * 2 * List.length timestamp)

let checked ~record len =
  if len <= max_record then Ok len
  else
    Core.Diag.failf ~stage:"gds"
      ~context:[ ("record", record); ("length", string_of_int len) ]
      "%s record of %d bytes exceeds the GDSII limit of %d" record len
      max_record

let ascii_bytes ~record s =
  checked ~record (4 + String.length s + (String.length s land 1))

let element_bytes e =
  Result.map
    (fun xy -> 4 + 6 + 6 + xy + 4)
    (checked ~record:"XY" (4 + (8 * List.length e.xy)))

let body_bytes = function
  | Layers layers ->
    Ok
      (Array.fold_left
         (fun acc l ->
           Array.fold_left
             (fun acc rects -> acc + (rect_bytes * Array.length rects))
             acc l.blocks)
         0 layers)
  | Elements es ->
    List.fold_left
      (fun acc e ->
        Result.bind acc (fun acc ->
            Result.map (( + ) acc) (element_bytes e)))
      (Ok 0) es

let stream_bytes ~libname structures =
  let ( let* ) = Result.bind in
  let* name = ascii_bytes ~record:"LIBNAME" libname in
  (* HEADER, BGNLIB, LIBNAME, UNITS ... ENDLIB *)
  let head = 6 + bgn_bytes + name + 20 + 4 in
  List.fold_left
    (fun acc (sname, body) ->
      let* acc = acc in
      let* strname = ascii_bytes ~record:"STRNAME" sname in
      let* body = body_bytes body in
      (* BGNSTR, STRNAME, body, ENDSTR *)
      Ok (acc + bgn_bytes + strname + body + 4))
    (Ok head) structures

let put_header b pos ~len rtype dtype =
  Bytes.set_uint16_be b pos len;
  Bytes.set_uint8 b (pos + 2) (Record.type_code rtype);
  Bytes.set_uint8 b (pos + 3) dtype;
  pos + 4

let put_i16 b pos v =
  Bytes.set_int16_be b pos v;
  pos + 2

let put_i32 b pos v =
  Bytes.set_int32_be b pos (Int32.of_int v);
  pos + 4

let put_timestamps b pos rtype =
  let pos = put_header b pos ~len:bgn_bytes rtype i16 in
  let stamp pos = List.fold_left (put_i16 b) pos timestamp in
  stamp (stamp pos)

let put_ascii b pos rtype s =
  let n = String.length s in
  let pos = put_header b pos ~len:(4 + n + (n land 1)) rtype ascii in
  Bytes.blit_string s 0 b pos n;
  if n land 1 = 1 then Bytes.set b (pos + n) '\000';
  pos + n + (n land 1)

let put_boundary_head b pos ~layer ~datatype ~points =
  let pos = put_header b pos ~len:4 Record.Boundary no_data in
  let pos = put_i16 b (put_header b pos ~len:6 Record.Layer i16) layer in
  let pos = put_i16 b (put_header b pos ~len:6 Record.Datatype i16) datatype in
  put_header b pos ~len:(4 + (8 * points)) Record.Xy i32

(* Everything in a rectangle's boundary but its coordinates depends only
   on the layer: the 20 bytes of BOUNDARY, LAYER, DATATYPE and the XY
   header before them, and the ENDEL after.  Each is written once into a
   template and then stored as whole words. *)
let rect_prefix layer =
  let b = Bytes.create 20 in
  ignore (put_boundary_head b 0 ~layer ~datatype:0 ~points:5 : int);
  (Bytes.get_int64_be b 0, Bytes.get_int64_be b 8, Bytes.get_int32_be b 16)

let endel =
  let b = Bytes.create 4 in
  ignore (put_header b 0 ~len:4 Record.Endel no_data : int);
  Bytes.get_int32_be b 0

let put_rect b pos (p0, p1, p2) ~dx ~dy (r : Geom.Rect.t) =
  let x0 = Int32.of_int (r.Geom.Rect.x0 + dx) in
  let y0 = Int32.of_int (r.Geom.Rect.y0 + dy) in
  let x1 = Int32.of_int (r.Geom.Rect.x1 + dx) in
  let y1 = Int32.of_int (r.Geom.Rect.y1 + dy) in
  Bytes.set_int64_be b pos p0;
  Bytes.set_int64_be b (pos + 8) p1;
  Bytes.set_int32_be b (pos + 16) p2;
  (* the closed polygon: (x0,y0) (x1,y0) (x1,y1) (x0,y1) (x0,y0) *)
  Bytes.set_int32_be b (pos + 20) x0;
  Bytes.set_int32_be b (pos + 24) y0;
  Bytes.set_int32_be b (pos + 28) x1;
  Bytes.set_int32_be b (pos + 32) y0;
  Bytes.set_int32_be b (pos + 36) x1;
  Bytes.set_int32_be b (pos + 40) y1;
  Bytes.set_int32_be b (pos + 44) x0;
  Bytes.set_int32_be b (pos + 48) y1;
  Bytes.set_int32_be b (pos + 52) x0;
  Bytes.set_int32_be b (pos + 56) y0;
  Bytes.set_int32_be b (pos + 60) endel;
  pos + rect_bytes

let put_element b pos e =
  let pos =
    put_boundary_head b pos ~layer:e.layer ~datatype:e.datatype
      ~points:(List.length e.xy)
  in
  let pos =
    List.fold_left (fun pos (x, y) -> put_i32 b (put_i32 b pos x) y) pos e.xy
  in
  put_header b pos ~len:4 Record.Endel no_data

let put_body b pos = function
  | Elements es -> List.fold_left (put_element b) pos es
  | Layers layers ->
    let pos = ref pos in
    Array.iter
      (fun l ->
        let prefix = rect_prefix l.number in
        Array.iteri
          (fun k rects ->
            let dx = l.dx.(k) and dy = l.dy.(k) in
            Array.iter
              (fun r -> pos := put_rect b !pos prefix ~dx ~dy r)
              rects)
          l.blocks)
      layers;
    !pos

let encode ~libname ~user_unit_m structures =
  Result.map
    (fun size ->
      let b = Bytes.create size in
      let pos = put_i16 b (put_header b 0 ~len:6 Record.Header i16) 600 in
      let pos = put_timestamps b pos Record.Bgnlib in
      let pos = put_ascii b pos Record.Libname libname in
      (* UNITS: user units per db unit (1.0), metres per db unit *)
      let pos = put_header b pos ~len:20 Record.Units real8 in
      Bytes.set_int64_be b pos (Record.encode_real8 1.0);
      Bytes.set_int64_be b (pos + 8) (Record.encode_real8 user_unit_m);
      let pos =
        List.fold_left
          (fun pos (sname, body) ->
            let pos = put_timestamps b pos Record.Bgnstr in
            let pos = put_ascii b pos Record.Strname sname in
            let pos = put_body b pos body in
            put_header b pos ~len:4 Record.Endstr no_data)
          (pos + 16) structures
      in
      let pos = put_header b pos ~len:4 Record.Endlib no_data in
      assert (pos = size);
      Bytes.unsafe_to_string b)
    (stream_bytes ~libname structures)

let to_bytes lib =
  Core.Diag.ok_exn
    (encode ~libname:lib.libname ~user_unit_m:lib.user_unit_m
       (List.map (fun s -> (s.sname, Elements s.elements)) lib.structures))

type parse_state = {
  mutable libname : string;
  mutable unit_m : float;
  mutable structures : structure list;  (* reversed *)
  mutable cur_name : string option;
  mutable cur_elems : element list;  (* reversed *)
  mutable el_layer : int;
  mutable el_dt : int;
  mutable in_boundary : bool;
}

let of_bytes s =
  let st =
    {
      libname = "";
      unit_m = 1e-9;
      structures = [];
      cur_name = None;
      cur_elems = [];
      el_layer = 0;
      el_dt = 0;
      in_boundary = false;
    }
  in
  let rec xy_pairs = function
    | x :: y :: rest -> (x, y) :: xy_pairs rest
    | [ _ ] -> []
    | [] -> []
  in
  let rec loop pos =
    if pos >= String.length s then Error "missing ENDLIB"
    else
      match Record.decode s ~pos with
      | Error e -> Error e
      | Ok (r, next) -> (
        match (r.Record.rtype, r.Record.payload) with
        | Record.Endlib, _ -> Ok ()
        | Record.Libname, Record.Ascii n ->
          st.libname <- n;
          loop next
        | Record.Units, Record.Real8 [ _; m ] ->
          st.unit_m <- m;
          loop next
        | Record.Strname, Record.Ascii n ->
          st.cur_name <- Some n;
          st.cur_elems <- [];
          loop next
        | Record.Endstr, _ ->
          (match st.cur_name with
          | Some sname ->
            st.structures <-
              { sname; elements = List.rev st.cur_elems } :: st.structures
          | None -> ());
          st.cur_name <- None;
          loop next
        | Record.Boundary, _ ->
          st.in_boundary <- true;
          st.el_layer <- 0;
          st.el_dt <- 0;
          loop next
        | Record.Layer, Record.I16 [ l ] ->
          st.el_layer <- l;
          loop next
        | Record.Datatype, Record.I16 [ d ] ->
          st.el_dt <- d;
          loop next
        | Record.Xy, Record.I32 coords ->
          if st.in_boundary then
            st.cur_elems <-
              { layer = st.el_layer; datatype = st.el_dt; xy = xy_pairs coords }
              :: st.cur_elems;
          loop next
        | Record.Endel, _ ->
          st.in_boundary <- false;
          loop next
        | ( ( Record.Header | Record.Bgnlib | Record.Bgnstr | Record.Sref
            | Record.Sname | Record.Text | Record.String_ | Record.Texttype
            | Record.Presentation | Record.Libname | Record.Units
            | Record.Layer | Record.Datatype | Record.Strname | Record.Xy ),
            _ ) ->
          loop next)
  in
  match loop 0 with
  | Error e -> Error e
  | Ok () ->
    Ok
      {
        libname = st.libname;
        user_unit_m = st.unit_m;
        structures = List.rev st.structures;
      }

let write_file path lib =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes lib))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_bytes s)
