(** From a CNT track to the conduction edges it contributes.

    The track is clipped against every placed element of the fabric; hits
    are ordered along the track and folded: contacts terminate conduction
    pieces, gates accumulate into the series set of the current piece, an
    etched strip cuts the CNT.  Doping follows the paper's model — outside
    gate regions the CNT is fully doped (conducting), under a gate it is
    intrinsic and gated. *)

type hit = { at : float; elem : Layout.Fabric.element }

type prepared
(** A fabric flattened into read-only arrays: item rectangles as floats,
    element kinds, and — when built with both [?node_id] and [?gate_mask]
    — a dense contact id and a gate input bit per item.  Holds no mutable
    state: one [prepared] value per fabric can be shared read-only by
    every trial of a campaign, across domains.  Every query clips the
    track against every item; a region has too few items for a spatial
    index to pay. *)

val prepare : ?node_id:(Logic.Switch_graph.node -> int)
  -> ?gate_mask:(string -> int) -> Layout.Fabric.t -> prepared
(** [node_id] and [gate_mask] name the dense namespace of
    {!strays_into} (see {!Layout.Cell.dense_node} and
    {!Layout.Cell.input_mask}); the list queries do not need them. *)

val fabric : prepared -> Layout.Fabric.t
(** The fabric the cache was built from. *)

(** {2 Allocation-free queries} *)

type scratch
(** Per-query working memory: the track and its ordered hits.  One per
    domain (the fault injector makes one per work chunk); never shared. *)

val scratch : unit -> scratch

val segment : scratch -> float array
(** The track to query, [[| px; py; qx; qy |]]; write it (e.g. with
    {!Track.sample_into}) before {!strays_into}. *)

val strays_into : prepared -> scratch -> Logic.Switch_graph.strays -> unit
(** Clip the scratch track against every item, order the hits along it,
    and append their conduction edges to the buffer in dense form: the
    edges of {!edges_prepared}, with the polarity of the fabric.
    @raise Invalid_argument if [prepared] was built without dense ids. *)

(** {2 List queries} *)

val hits : Layout.Fabric.t -> Geom.Segment.t -> hit list
(** Element crossings ordered by track parameter. *)

val hits_prepared : prepared -> Geom.Segment.t -> hit list
(** Same as {!hits} on the cached geometry; equal output for equal input. *)

val edges_of_hits : polarity:Logic.Network.polarity -> hit list
  -> Logic.Switch_graph.edge list
(** The fold behind {!edges}: ordered hits to conduction edges. *)

val edges : Layout.Fabric.t -> Geom.Segment.t -> Logic.Switch_graph.edge list
(** Conduction edges between consecutive contacts reached by the track
    without an intervening etch; each edge is gated by the gates crossed
    in between (possibly none — a hard short). *)

val edges_prepared : prepared -> Geom.Segment.t -> Logic.Switch_graph.edge list
(** Same as {!edges} on the cached geometry; equal output for equal input. *)
