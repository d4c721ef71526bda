let placement ~lib ~scheme ~name (p : Placer.t) =
  let ( let* ) = Result.bind in
  let placed = Array.of_list p.Placer.cells in
  let n = Array.length placed in
  (* Resolve every placed instance to its cell, stopping at the first
     error.  Cells are numbered in first-occurrence order, and each
     cell's layers are computed once, as (GDS layer, rectangles). *)
  let ids = Hashtbl.create 16 in
  let uniq = ref [] in
  let cell_of = Array.make n 0 in
  let rec resolve i =
    if i = n then Ok ()
    else
      let* e = Placer.entry_for lib placed.(i).Placer.inst in
      let l =
        match scheme with
        | `S1 -> e.Stdcell.Library.scheme1
        | `S2 -> e.Stdcell.Library.scheme2
      in
      let id =
        match Hashtbl.find_opt ids l.Layout.Cell.name with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids l.Layout.Cell.name id;
          let layers =
            List.map
              (fun (layer, region) ->
                ( Pdk.Layer.gds_number layer,
                  Array.of_list (Geom.Region.rects region) ))
              (Layout.Cell.layers l)
          in
          uniq := (l.Layout.Cell.name, Array.of_list layers) :: !uniq;
          id
      in
      cell_of.(i) <- id;
      resolve (i + 1)
  in
  let* () = resolve 0 in
  let cells = Array.of_list (List.rev !uniq) in
  (* Top-structure layer order: by last occurrence in the instances'
     concatenated layer lists, most recent first — so the first time a
     backward walk meets each layer.  The walk stops once every layer of
     every cell has been met. *)
  let distinct = Hashtbl.create 16 in
  Array.iter
    (fun (_, layers) ->
      Array.iter (fun (num, _) -> Hashtbl.replace distinct num ()) layers)
    cells;
  let slot = Hashtbl.create 16 in
  let order = ref [] in
  let i = ref (n - 1) in
  while !i >= 0 && Hashtbl.length slot < Hashtbl.length distinct do
    let layers = snd cells.(cell_of.(!i)) in
    for k = Array.length layers - 1 downto 0 do
      let num = fst layers.(k) in
      if not (Hashtbl.mem slot num) then begin
        Hashtbl.add slot num (Hashtbl.length slot);
        order := num :: !order
      end
    done;
    decr i
  done;
  let order = Array.of_list (List.rev !order) in
  (* per cell, its rectangles by top-structure slot *)
  let by_slot =
    Array.map
      (fun (_, layers) ->
        let a = Array.make (Array.length order) [||] in
        Array.iter
          (fun (num, rects) -> a.(Hashtbl.find slot num) <- rects)
          layers;
        a)
      cells
  in
  (* Each top layer lists, in placement order, one block per instance
     carrying that layer: the cell's own rectangle array at the
     instance's offset. *)
  let top =
    Array.mapi
      (fun s number ->
        let count = ref 0 in
        Array.iter
          (fun c -> if Array.length by_slot.(c).(s) > 0 then incr count)
          cell_of;
        let blocks = Array.make !count [||] in
        let dx = Array.make !count 0 and dy = Array.make !count 0 in
        let k = ref 0 in
        Array.iteri
          (fun i c ->
            let rects = by_slot.(c).(s) in
            if Array.length rects > 0 then begin
              blocks.(!k) <- rects;
              dx.(!k) <- placed.(i).Placer.x;
              dy.(!k) <- placed.(i).Placer.y;
              incr k
            end)
          cell_of;
        { Gds.Stream.number; blocks; dx; dy })
      order
  in
  let cell_structure (cname, layers) =
    ( cname,
      Gds.Stream.Layers
        (Array.map
           (fun (number, rects) ->
             {
               Gds.Stream.number;
               blocks = [| rects |];
               dx = [| 0 |];
               dy = [| 0 |];
             })
           layers) )
  in
  Gds.Stream.encode ~libname:name
    ~user_unit_m:(Gds.Stream.user_unit_m lib.Stdcell.Library.rules)
    ((name ^ "_top", Gds.Stream.Layers top)
    :: Array.to_list (Array.map cell_structure cells))
