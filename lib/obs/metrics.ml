type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_buckets : Dsutil.Histogram.t;
  h_summary : Dsutil.Stats.t;
}

type t = {
  m_counters : (string, counter) Hashtbl.t;
  m_gauges : (string, gauge) Hashtbl.t;
  m_histograms : (string, histogram) Hashtbl.t;
  mutable m_sources : ((string -> int -> unit) -> unit) list;
}

let create () =
  {
    m_counters = Hashtbl.create 32;
    m_gauges = Hashtbl.create 8;
    m_histograms = Hashtbl.create 16;
    m_sources = [];
  }

let get_or_create table name make =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace table name v;
    v

let counter t name =
  get_or_create t.m_counters name (fun () -> { c_name = name; c_value = 0 })

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_name c = c.c_name
let counter_value c = c.c_value

let source t report = t.m_sources <- report :: t.m_sources

(* Every (name, value) pair: the registry's own counters, then each
   source's reports.  A name may come up more than once; readers sum. *)
let iter_counters t f =
  Hashtbl.iter (fun name c -> f name c.c_value) t.m_counters;
  List.iter (fun report -> report f) t.m_sources

let counter_of t name =
  let total = ref 0 in
  iter_counters t (fun n v -> if String.equal n name then total := !total + v);
  !total

let gauge t name =
  get_or_create t.m_gauges name (fun () -> { g_name = name; g_value = 0.0 })

let set g v = g.g_value <- v
let gauge_name g = g.g_name
let gauge_value g = g.g_value

let histogram t ?(base = 2.0) ?(buckets = 64) name =
  get_or_create t.m_histograms name (fun () ->
      {
        h_name = name;
        h_buckets = Dsutil.Histogram.create ~base ~buckets ();
        h_summary = Dsutil.Stats.create ();
      })

let observe h x =
  Dsutil.Histogram.add h.h_buckets x;
  Dsutil.Stats.add h.h_summary x

let histogram_name h = h.h_name
let summary h = h.h_summary
let buckets h = h.h_buckets

let sorted_bindings table value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  let sums = Hashtbl.create 64 in
  iter_counters t (fun name v ->
      let prev = Option.value (Hashtbl.find_opt sums name) ~default:0 in
      Hashtbl.replace sums name (prev + v));
  sorted_bindings sums Fun.id

let gauges t = sorted_bindings t.m_gauges (fun g -> g.g_value)
let histograms t = sorted_bindings t.m_histograms Fun.id
