(** Stream a placed design out to GDSII. *)

val placement : lib:Stdcell.Library.t
  -> scheme:[ `S1 | `S2 ] -> name:string -> Placer.t
  -> (string, Core.Diag.t) result
(** The GDSII stream of the placed design: library [name], a top
    structure [name ^ "_top"] with every placed instance flattened into
    it, then one structure per referenced cell in first-placement order.
    Top-structure layers are ordered by their last occurrence across the
    placement, most recent first, each listing its rectangles in
    placement order.  Each cell's layers are computed once however often
    it is placed.  Errors when a placed instance has no library cell, or
    when a record outgrows GDSII's 16-bit length (see
    {!Gds.Stream.encode}). *)
