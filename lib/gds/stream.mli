(** GDSII libraries: structures of boundary elements, serialized to and
    parsed from the binary stream format.

    Coordinates are in database units; {!write} sets one database unit to
    one lambda of the given rules (user unit = lambda in metres), so
    layouts stream out at true 65nm-node scale. *)

type element = {
  layer : int;
  datatype : int;
  xy : (int * int) list;  (** closed polygon: first point repeated last *)
}

type structure = { sname : string; elements : element list }

type library = {
  libname : string;
  user_unit_m : float;  (** metres per database unit *)
  structures : structure list;
}

val element_of_rect : layer:int -> Geom.Rect.t -> element

val user_unit_m : Pdk.Rules.t -> float
(** One lambda of the rules, in metres: the database unit {!library}
    and the layout exporters stream at. *)

val library : rules:Pdk.Rules.t -> name:string
  -> (string * (Pdk.Layer.t * Geom.Region.t) list) list -> library
(** Build a library with one structure per named cell from per-layer
    geometry (as produced by [Layout.Cell.layers]). *)

(** {1 Encoding}

    The one GDSII writer.  {!encode} first computes the exact stream
    length, then fills a single pre-sized buffer with big-endian stores,
    so a die of many placed cells streams out without building an
    element, record or coordinate list per rectangle. *)

type layer = {
  number : int;  (** GDS layer number *)
  blocks : Geom.Rect.t array array;  (** rectangle blocks, in stream order *)
  dx : int array;  (** x offset of each block *)
  dy : int array;  (** y offset of each block *)
}
(** Rectangles on one layer: block [k]'s rectangles are written, in
    order, translated by [(dx.(k), dy.(k))].  A placed cell's rectangles
    are one block, shared across every instance of the cell. *)

type body =
  | Layers of layer array
      (** rectangles as closed five-point boundaries, datatype 0, layer by
          layer in array order *)
  | Elements of element list  (** arbitrary boundaries, in order *)

val encode : libname:string -> user_unit_m:float -> (string * body) list
  -> (string, Core.Diag.t) result
(** The stream of a library with one structure per [(name, body)].  Fails
    with a diagnostic of stage ["gds"] naming the record and its length
    when a record would not fit its 16-bit length field (a name or an
    [XY] point list over 65,535 bytes). *)

val to_bytes : library -> string
(** {!encode} of the library's structures as {!Elements}.
    @raise Core.Diag.Failure when a record is too long (see {!encode}). *)

val of_bytes : string -> (library, string) result
(** Parses the subset emitted by {!to_bytes} (boundaries only; SREF/TEXT
    records are skipped). *)

val write_file : string -> library -> unit
val read_file : string -> (library, string) result
