type hit = { at : float; elem : Layout.Fabric.element }

(* Fabric geometry is immutable during a campaign; a [prepared] value
   flattens the items into read-only arrays once per campaign.  A region
   holds a handful of items (5-30 in the catalog), so every track is
   clipped against all of them: a spatial index costs more than it saves
   at this size.  Nothing in a [prepared] value is mutated after
   [prepare], so it can be shared across domains; per-query state lives
   in a [scratch]. *)

type prepared = {
  fabric : Layout.Fabric.t;
  n : int;
  x0 : float array;
  y0 : float array;
  x1 : float array;
  y1 : float array;
  node : int array;  (* dense id of a contact, -1 when not compiled *)
  gate : int array;  (* input bit of a gate, 0 otherwise *)
  elems : Layout.Fabric.element array;
  compiled : bool;
  n_type : bool;
}

let prepare ?node_id ?gate_mask (f : Layout.Fabric.t) =
  let items = Array.of_list f.Layout.Fabric.items in
  let rect coord =
    Array.map
      (fun (p : Layout.Fabric.placed) ->
        float_of_int (coord p.Layout.Fabric.rect))
      items
  in
  let elems =
    Array.map (fun (p : Layout.Fabric.placed) -> p.Layout.Fabric.elem) items
  in
  let compiled = Option.is_some node_id && Option.is_some gate_mask in
  let node_id = Option.value node_id ~default:(fun _ -> -1)
  and gate_mask = Option.value gate_mask ~default:(fun _ -> 0) in
  {
    fabric = f;
    n = Array.length items;
    x0 = rect (fun r -> r.Geom.Rect.x0);
    y0 = rect (fun r -> r.Geom.Rect.y0);
    x1 = rect (fun r -> r.Geom.Rect.x1);
    y1 = rect (fun r -> r.Geom.Rect.y1);
    node =
      Array.map
        (function Layout.Fabric.Contact n -> node_id n | Gate _ | Etch -> -1)
        elems;
    gate =
      Array.map
        (function Layout.Fabric.Gate g -> gate_mask g | Contact _ | Etch -> 0)
        elems;
    elems;
    compiled;
    n_type = f.Layout.Fabric.polarity = Logic.Network.N_type;
  }

let fabric p = p.fabric

type scratch = {
  seg : float array;  (* px; py; qx; qy *)
  mutable at : float array;
  mutable item : int array;
  mutable hits : int;
}

let scratch () =
  {
    seg = Array.make 4 0.;
    at = Array.make 16 0.;
    item = Array.make 16 0;
    hits = 0;
  }

let segment s = s.seg

(* Clip the segment in [s.seg] against every item, with the arithmetic of
   [Geom.Segment.clip_to_rect_f] (Liang-Barsky, same operations in the
   same order, [max]/[min] spelled out), and keep the hits ordered by
   their midpoint parameter.  The insertion sort is stable: ties keep
   item order, as [List.stable_sort] of the item-ordered hits would. *)
let scan p s =
  if Array.length s.at < p.n then begin
    s.at <- Array.make p.n 0.;
    s.item <- Array.make p.n 0
  end;
  let px = s.seg.(0) and py = s.seg.(1) in
  let dx = s.seg.(2) -. px and dy = s.seg.(3) -. py in
  s.hits <- 0;
  for k = 0 to p.n - 1 do
    let t0 = ref 0. and t1 = ref 1. and ok = ref true in
    for side = 0 to 3 do
      if !ok then begin
        let dir =
          match side with 0 -> -.dx | 1 -> dx | 2 -> -.dy | _ -> dy
        and dist =
          match side with
          | 0 -> px -. p.x0.(k)
          | 1 -> p.x1.(k) -. px
          | 2 -> py -. p.y0.(k)
          | _ -> p.y1.(k) -. py
        in
        if Float.abs dir < 1e-12 then (if dist < 0. then ok := false)
        else begin
          let r = dist /. dir in
          if dir < 0. then
            if r > !t1 then ok := false
            else if not (!t0 >= r) then t0 := r
            else ()
          else if r < !t0 then ok := false
          else if not (!t1 <= r) then t1 := r
        end
      end
    done;
    if !ok && !t0 < !t1 then begin
      let at = (!t0 +. !t1) /. 2. in
      let j = ref (s.hits - 1) in
      while !j >= 0 && s.at.(!j) > at do
        s.at.(!j + 1) <- s.at.(!j);
        s.item.(!j + 1) <- s.item.(!j);
        decr j
      done;
      s.at.(!j + 1) <- at;
      s.item.(!j + 1) <- k;
      s.hits <- s.hits + 1
    end
  done

(* The fold of [edges_of_hits] over the scanned hits, in dense form:
   contacts end a conducting piece, gates add their bit to its mask, an
   etch cuts it. *)
let strays_into p s strays =
  if not p.compiled then
    invalid_arg "Fault.Crossing.strays_into: prepared without dense ids";
  scan p s;
  let src = ref (-1) and mask = ref 0 in
  for h = 0 to s.hits - 1 do
    let k = s.item.(h) in
    match p.elems.(k) with
    | Layout.Fabric.Gate _ -> mask := !mask lor p.gate.(k)
    | Layout.Fabric.Etch -> src := -1
    | Layout.Fabric.Contact _ ->
      if !src >= 0 then
        Logic.Switch_graph.push_stray strays ~src:!src ~dst:p.node.(k)
          ~mask:!mask
          ~want:(if p.n_type then !mask else 0);
      src := p.node.(k);
      mask := 0
  done

let hits_prepared p (seg : Geom.Segment.t) =
  let s = scratch () in
  s.seg.(0) <- seg.Geom.Segment.p.Geom.Vec.x;
  s.seg.(1) <- seg.Geom.Segment.p.Geom.Vec.y;
  s.seg.(2) <- seg.Geom.Segment.q.Geom.Vec.x;
  s.seg.(3) <- seg.Geom.Segment.q.Geom.Vec.y;
  scan p s;
  List.init s.hits (fun h -> { at = s.at.(h); elem = p.elems.(s.item.(h)) })

let edges_of_hits ~polarity hits =
  let fold (acc, state) h =
    match h.elem with
    | Layout.Fabric.Gate g -> (
      match state with
      | None -> (acc, None)  (* dangling piece: no contact reached yet *)
      | Some (src, gates) -> (acc, Some (src, g :: gates)))
    | Layout.Fabric.Etch -> (acc, None)
    | Layout.Fabric.Contact n -> (
      match state with
      | None -> (acc, Some (n, []))
      | Some (src, gates) ->
        let e =
          { Logic.Switch_graph.src; dst = n; gates = List.rev gates; polarity }
        in
        (e :: acc, Some (n, [])))
  in
  (* a dangling piece before the first contact conducts but connects
     nothing, so starting with [None] is correct *)
  let acc, _ = List.fold_left fold ([], None) hits in
  List.rev acc

let edges_prepared p seg =
  edges_of_hits ~polarity:p.fabric.Layout.Fabric.polarity (hits_prepared p seg)

let hits (f : Layout.Fabric.t) seg = hits_prepared (prepare f) seg

let edges (f : Layout.Fabric.t) seg =
  edges_of_hits ~polarity:f.Layout.Fabric.polarity (hits f seg)
