type t = { seg : Geom.Segment.t }

let horizontal ~y ~x0 ~x1 =
  { seg = Geom.Segment.make (Geom.Vec.v x0 y) (Geom.Vec.v x1 y) }

(* The track crosses the whole box through [y_center] at the box's
   horizontal midpoint, endpoints one lambda beyond each side; it is
   written into a float array, so the sampling loop of a campaign boxes
   nothing but the two draws. *)
let sample_into rng ~bbox ~max_angle_deg ~margin (seg : float array) =
  let ylo = float_of_int bbox.Geom.Rect.y0 -. margin
  and yhi = float_of_int bbox.Geom.Rect.y1 +. margin in
  let y_center = ylo +. Random.State.float rng (yhi -. ylo) in
  let a = max_angle_deg *. Float.pi /. 180. in
  let angle_rad = -.a +. Random.State.float rng (2. *. a) in
  let x0 = float_of_int bbox.Geom.Rect.x0 -. 1.
  and x1 = float_of_int bbox.Geom.Rect.x1 +. 1. in
  let xc = (x0 +. x1) /. 2. in
  let slope = tan angle_rad in
  seg.(0) <- x0;
  seg.(1) <- y_center +. (slope *. (x0 -. xc));
  seg.(2) <- x1;
  seg.(3) <- y_center +. (slope *. (x1 -. xc))

let sample rng ~bbox ~max_angle_deg ~margin =
  let seg = Array.make 4 0. in
  sample_into rng ~bbox ~max_angle_deg ~margin seg;
  {
    seg =
      Geom.Segment.make
        (Geom.Vec.v seg.(0) seg.(1))
        (Geom.Vec.v seg.(2) seg.(3));
  }

let pp ppf t = Geom.Segment.pp ppf t.seg
