(* meter sites, interned at module initialisation *)
let s_map_resolve = Meter.Site.fn "map_resolve"
let s_map_resolve_entry = Meter.Site.block "map_resolve" "entry"
let s_map_resolve_cache = Meter.Site.block "map_resolve" "cache"
let s_map_resolve_probe = Meter.Site.block "map_resolve" "probe"
let s_map_resolve_collision = Meter.Site.cold "map_resolve" "collision"

type caller = {
  cache : Meter.Site.t;
  stub : Meter.Site.t;
}

let caller f =
  { cache = Meter.Site.block f "map_cache"; stub = Meter.Site.call f "map_cache" 0 }

let lookup (m : Meter.t) ~inline ~caller map key =
  m.Meter.block caller.cache;
  if inline then begin
    (* inlined cache test: call the general function only on a miss *)
    match Map.resolve map key with
    | Some _ as r when Map.cache_answered map -> r
    | Some _ | None ->
      (* the inlined test failed; fall into the general function, which
         will probe (the cache was just refilled by the first resolve, so
         we must not consult it again — probe explicitly) *)
      m.Meter.call caller.stub;
      m.Meter.enter s_map_resolve;
      m.Meter.block s_map_resolve_entry;
      m.Meter.block s_map_resolve_cache;
      m.Meter.block s_map_resolve_probe;
      m.Meter.cold ~triggered:false s_map_resolve_collision;
      let r = Map.resolve map key in
      m.Meter.leave s_map_resolve;
      r
  end
  else begin
    m.Meter.call caller.stub;
    m.Meter.enter s_map_resolve;
    m.Meter.block s_map_resolve_entry;
    let r = Map.resolve map key in
    let hit = Map.cache_answered map in
    m.Meter.block s_map_resolve_cache;
    (match r with
    | Some _ when hit -> ()
    | Some _ | None -> m.Meter.block s_map_resolve_probe);
    m.Meter.cold ~triggered:false s_map_resolve_collision;
    m.Meter.leave s_map_resolve;
    r
  end
