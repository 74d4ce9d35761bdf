(** Named-metric registry: counters, gauges and latency histograms.

    Metrics are created on first use ([counter], [gauge] and [histogram]
    are get-or-create) and then held by reference, so an instrumentation
    point pays one hashtable lookup when it attaches and a plain field
    update per event afterwards.  Histograms pair a log-bucketed
    {!Dsutil.Histogram} (cheap shape) with an exact {!Dsutil.Stats}
    summary (percentiles).

    Counters have two kinds of owner.  A component that already counts
    something in its own [int] fields (the network, replicas, quorum-round
    endpoints, coordinators) registers a {!source}: a closure the registry
    calls when it is read, so the component's field is the only store and
    nothing is written twice.  Counters with no component twin (the
    span-driven [ops.*] and [phase.*] counters) are registry-owned
    handles. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Counters} *)

val counter : t -> string -> counter
(** Get-or-create the named counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_name : counter -> string
val counter_value : counter -> int

val source : t -> ((string -> int -> unit) -> unit) -> unit
(** [source t report] registers a counter source.  Whenever the counters
    are read, [report] is called with a function it passes each
    [(name, value)] pair it owns.  Reports of one name, from several
    sources or from a source and a registry counter, are summed; a name
    appears only if some source reports it (or a registry counter of that
    name exists).  Sources are never removed. *)

val counter_of : t -> string -> int
(** Current value of the named counter, summed over the registry counter
    and every source's reports; 0 when none has the name. *)

(** {2 Gauges} *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_name : gauge -> string
val gauge_value : gauge -> float

(** {2 Histograms} *)

val histogram : t -> ?base:float -> ?buckets:int -> string -> histogram
(** Get-or-create; [base]/[buckets] (defaults 2.0/64) only apply to the
    first creation of a name. *)

val observe : histogram -> float -> unit
val histogram_name : histogram -> string

val summary : histogram -> Dsutil.Stats.t
(** Exact running summary of every observation (mean, percentiles). *)

val buckets : histogram -> Dsutil.Histogram.t
(** The log-bucketed shape, e.g. for {!Dsutil.Histogram.render}. *)

(** {2 Enumeration (sorted by name)} *)

val counters : t -> (string * int) list
(** Registry counters merged with every source's reports, summed by
    name. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * histogram) list
