(** Complete standard cells: a PUN and a PDN fabric assembled under one of
    the paper's two layout schemes.

    Scheme 1 stacks the PUN above the PDN with a routing channel between
    them (CMOS-like; channel width set by the input-pin size, 6 lambda,
    instead of the 10 lambda n-to-p diffusion spacing of CMOS).  Scheme 2
    places the PUN and the PDN side by side, shrinking the cell height —
    the novel CNFET-specific arrangement of Section IV. *)

type style =
  | Immune_new  (** the paper's compact Euler-strip layouts *)
  | Immune_old  (** etched-region layouts of Patil et al. [6] *)
  | Vulnerable  (** no isolation: Fig. 2(b) baseline *)
  | Cmos  (** reference CMOS cell under 65nm rules *)

type scheme = Scheme1 | Scheme2

type t = {
  name : string;
  fn : Logic.Cell_fun.t;
  style : style;
  scheme : scheme;
  rules : Pdk.Rules.t;
  drive : int;  (** base transistor width in lambda *)
  pun : Fabric.t;  (** placed in cell coordinates *)
  pdn : Fabric.t;
  width : int;
  height : int;
}

val make : rules:Pdk.Rules.t -> fn:Logic.Cell_fun.t -> style:style
  -> scheme:scheme -> drive:int -> (t, Core.Diag.t) result
(** Build the cell.  [drive] is the base (unit-path) transistor width in
    lambda and must be at least 1; series paths are widened per
    {!Sizing.widths}.  CMOS cells draw pMOS [cmos_pn_ratio] times wider
    than nMOS and use the CMOS PUN/PDN separation.  Errors (invalid drive,
    fabric construction failures) arrive as [Diag] values. *)

val make_exn : rules:Pdk.Rules.t -> fn:Logic.Cell_fun.t -> style:style
  -> scheme:scheme -> drive:int -> t
(** {!make}, raising [Core.Diag.Failure] on error.  Thin shim for the CLI
    boundary, tests and benches. *)

val active_area : t -> int
(** PUN + PDN active area including via overheads — the Table 1 metric. *)

val footprint_area : t -> int
(** Cell footprint: width times height of the assembled cell (active bands
    plus the inter-network channel) — the case-study area metric. *)

val pins : t -> (string * Geom.Rect.t) list
(** Input pin markers, one per input, in the routing channel. *)

val graph_with : t -> pun_extra:Logic.Switch_graph.edge list
  -> pdn_extra:Logic.Switch_graph.edge list -> Logic.Switch_graph.t
(** Conduction graph of the cell: nominal CNT rows of both fabrics plus
    extra (stray-CNT) edges per network region.  Internal nodes of the two
    fabrics live in disjoint namespaces. *)

val truth_with : t -> pun_extra:Logic.Switch_graph.edge list
  -> pdn_extra:Logic.Switch_graph.edge list -> Logic.Truth.t
(** Tabulated output of {!graph_with} over the cell inputs. *)

val reference_truth : t -> Logic.Truth.t
(** The intended function [Not core]. *)

type prepared
(** Per-cell state that is invariant across fault-injection trials: the
    nominal row edges of both fabrics (internal namespaces already made
    disjoint), the input list and the reference truth table.  Immutable,
    hence safe to share read-only across domains. *)

val prepare : t -> prepared
(** @raise Invalid_argument past {!Logic.Switch_graph.max_dense_nodes}
    contact nodes (the catalog needs at most 5). *)

val prepared_reference : prepared -> Logic.Truth.t
(** Cached {!reference_truth}. *)

val prepared_inputs : prepared -> string list
(** Input names of the cell, in {!Logic.Truth} row order. *)

val truth_of_prepared : prepared -> pun_extra:Logic.Switch_graph.edge list
  -> pdn_extra:Logic.Switch_graph.edge list -> Logic.Truth.t
(** {!truth_with} against the cached nominal edges: equal output for equal
    input, without rebuilding the row graphs.  The extra edges must join
    contacts of their fabric and be gated by cell inputs
    (@raise Invalid_argument otherwise) — the edges {!Fault.Crossing}
    extracts always are. *)

val drives_of_prepared : prepared -> pun_extra:Logic.Switch_graph.edge list
  -> pdn_extra:Logic.Switch_graph.edge list
  -> Logic.Switch_graph.drive array
(** {!Logic.Switch_graph.drive_table} of the corrupted graph over
    {!prepared_inputs} — like {!truth_of_prepared} but keeping rail fights
    and floating outputs apart, which is what fault diagnosis classifies
    on.  Same conditions on the extra edges. *)

(** {2 Dense evaluation}

    The allocation-free trial kernel of the fault injector works on the
    dense form of the prepared graph ({!Logic.Switch_graph.dense}): node
    ids are Vdd, Gnd, Out, then the internals of both fabrics in one
    namespace, and gate names are input bitmasks. *)

val prepared_rows : prepared -> int
(** Rows of the reference table, [2^(List.length (prepared_inputs p))]. *)

val dense_node : prepared -> pdn:bool -> Logic.Switch_graph.node -> int
(** Dense id of a contact node of the PUN ([~pdn:false]) or PDN fabric;
    [-1] for a node the cell does not have. *)

val input_mask : prepared -> string -> int
(** The bit of a gate input, in {!Logic.Truth} row order.
    @raise Invalid_argument for a name that is not a cell input. *)

val drives_into : prepared -> Logic.Switch_graph.strays
  -> Logic.Switch_graph.drive array -> unit
(** {!drives_of_prepared} with the strays already in dense form, written
    into a caller-owned array of {!prepared_rows} entries.  Allocates
    nothing. *)

val matches_reference : prepared -> Logic.Switch_graph.drive array -> bool
(** Does every row's {!Logic.Switch_graph.value_of_drive} equal the
    reference?  The row-by-row form of comparing {!truth_of_prepared}
    with {!prepared_reference}. *)

val check_function : t -> (unit, string) result
(** Verify that nominal CNT rows of both fabrics realize the intended cell
    function (switch-level, exhaustive over input assignments). *)

val layers : t -> (Pdk.Layer.t * Geom.Region.t) list
(** Geometry per layer for GDSII export. *)
