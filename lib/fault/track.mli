(** Mispositioned-CNT tracks.

    A CNT is modelled as a straight segment spanning a fabric horizontally;
    a *well-positioned* CNT runs at angle zero inside a CNT row, while a
    mispositioned one has a random vertical offset (possibly in a corridor
    between rows) and a small random angle, matching the paper's Fig. 2
    failure mechanism. *)

type t = { seg : Geom.Segment.t }

val horizontal : y:float -> x0:float -> x1:float -> t

val sample : Random.State.t -> bbox:Geom.Rect.t -> max_angle_deg:float
  -> margin:float -> t
(** A track crossing the whole box, passing through a height [y_center]
    at the box's horizontal midpoint with a slope angle; its endpoints
    extend one lambda beyond the box on each side.  [y_center] is uniform
    over the box extended by [margin] on top and bottom, the angle
    uniform in [±max_angle_deg]. *)

val sample_into : Random.State.t -> bbox:Geom.Rect.t -> max_angle_deg:float
  -> margin:float -> float array -> unit
(** {!sample} written as [[| px; py; qx; qy |]] into the first four
    slots of the array: the same draws and the same endpoints, without
    building the segment. *)

val pp : Format.formatter -> t -> unit
