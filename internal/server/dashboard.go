package server

// dashboardHTML is the whole operator dashboard: one document, inline CSS
// and JS, zero external assets (no scripts, stylesheets, fonts or images
// fetched from anywhere). It polls the JSON API on the same origin:
// /api/health for the model snapshot and cost ledger, /api/alerts for
// rule states, and /api/timeseries for the sparkline panels.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Prodigy — model health</title>
<style>
  :root { --bg:#101418; --panel:#1a2028; --ink:#d8dee6; --dim:#7d8894;
          --ok:#3fb57f; --warn:#e0a93e; --bad:#e05d5d; --line:#5aa9e6; }
  body { background:var(--bg); color:var(--ink); margin:0;
         font:14px/1.45 ui-monospace, SFMono-Regular, Menlo, monospace; }
  header { padding:14px 20px; border-bottom:1px solid #2a323c;
           display:flex; gap:18px; align-items:baseline; flex-wrap:wrap; }
  header h1 { font-size:16px; margin:0; font-weight:600; }
  header .stat b { color:var(--ink); } header .stat { color:var(--dim); }
  main { display:grid; grid-template-columns:repeat(auto-fit,minmax(340px,1fr));
         gap:14px; padding:16px 20px; }
  .panel { background:var(--panel); border:1px solid #2a323c; border-radius:6px;
           padding:12px 14px; }
  .panel h2 { font-size:12px; text-transform:uppercase; letter-spacing:.08em;
              color:var(--dim); margin:0 0 8px; }
  .big { font-size:22px; font-weight:600; }
  svg.spark { width:100%; height:56px; display:block; }
  svg.spark polyline { fill:none; stroke:var(--line); stroke-width:1.5; }
  svg.spark .fill { fill:rgba(90,169,230,.15); stroke:none; }
  table { width:100%; border-collapse:collapse; }
  td, th { text-align:left; padding:3px 6px; border-bottom:1px solid #242c36; }
  th { color:var(--dim); font-weight:normal; }
  .state-firing { color:var(--bad); font-weight:600; }
  .state-pending { color:var(--warn); }
  .state-resolved { color:var(--ok); }
  .state-inactive { color:var(--dim); }
  .err { color:var(--bad); }
  footer { color:var(--dim); padding:8px 20px 16px; font-size:12px; }
</style>
</head>
<body>
<header>
  <h1>Prodigy model health</h1>
  <span class="stat">trained <b id="h-trained">–</b></span>
  <span class="stat">threshold <b id="h-thr">–</b></span>
  <span class="stat">uptime <b id="h-up">–</b></span>
  <span class="stat" id="h-err"></span>
</header>
<main>
  <div class="panel"><h2>Alerts</h2>
    <div class="big" id="a-firing">–</div>
    <table id="a-table"><tbody></tbody></table>
  </div>
  <div class="panel"><h2>Scoring rate (rows/s)</h2>
    <div class="big" id="s-rate">–</div>
    <svg class="spark" id="spark-rate" viewBox="0 0 300 56" preserveAspectRatio="none"></svg>
  </div>
  <div class="panel"><h2>Score p99 (reconstruction error)</h2>
    <div class="big" id="s-p99">–</div>
    <svg class="spark" id="spark-p99" viewBox="0 0 300 56" preserveAspectRatio="none"></svg>
  </div>
  <div class="panel"><h2>HTTP p99 latency (s)</h2>
    <div class="big" id="s-http">–</div>
    <svg class="spark" id="spark-http" viewBox="0 0 300 56" preserveAspectRatio="none"></svg>
  </div>
  <div class="panel"><h2>Cost ledger</h2>
    <table id="c-table"><tbody><tr><th>model</th><th>rows</th><th>ns/row</th></tr></tbody></table>
  </div>
</main>
<footer>auto-refreshes every 5s · served entirely from this process · see /metrics, /api/alerts, /debug/spans</footer>
<script>
"use strict";
function fmt(v, digits) {
  if (v === null || v === undefined || !isFinite(v)) return "–";
  return v.toPrecision(digits || 3);
}
function spark(id, points) {
  var svg = document.getElementById(id);
  while (svg.firstChild) svg.removeChild(svg.firstChild);
  if (!points || points.length < 2) return;
  var lo = Infinity, hi = -Infinity;
  points.forEach(function (p) { lo = Math.min(lo, p.v); hi = Math.max(hi, p.v); });
  if (hi === lo) { hi = lo + 1; }
  var t0 = points[0].t, t1 = points[points.length - 1].t || t0 + 1;
  var xy = points.map(function (p) {
    var x = 300 * (p.t - t0) / Math.max(1, t1 - t0);
    var y = 52 - 48 * (p.v - lo) / (hi - lo);
    return x.toFixed(1) + "," + y.toFixed(1);
  });
  var ns = "http://www.w3.org/2000/svg";
  var area = document.createElementNS(ns, "polygon");
  area.setAttribute("class", "fill");
  area.setAttribute("points", "0,56 " + xy.join(" ") + " 300,56");
  svg.appendChild(area);
  var line = document.createElementNS(ns, "polyline");
  line.setAttribute("points", xy.join(" "));
  svg.appendChild(line);
}
function lastV(series) {
  if (!series || !series.length) return null;
  var pts = series[0].points;
  if (!pts || !pts.length) return null;
  return pts[pts.length - 1].v;
}
function getJSON(url) {
  return fetch(url).then(function (r) {
    if (!r.ok) throw new Error(url + " → " + r.status);
    return r.json();
  });
}
function refresh() {
  getJSON("/api/health").then(function (h) {
    document.getElementById("h-trained").textContent = h.trained ? "yes" : "no";
    document.getElementById("h-thr").textContent = fmt(h.threshold, 4);
    document.getElementById("h-up").textContent = Math.round(h.uptime_seconds) + "s";
    var body = document.querySelector("#c-table tbody");
    body.innerHTML = "<tr><th>model</th><th>rows</th><th>ns/row</th></tr>";
    (h.cost_ledger || []).forEach(function (row) {
      var tr = document.createElement("tr");
      [row.model, row.rows, fmt(row.ns_per_row, 4)].forEach(function (c) {
        var td = document.createElement("td");
        td.textContent = c;
        tr.appendChild(td);
      });
      body.appendChild(tr);
    });
    document.getElementById("h-err").textContent = "";
  }).catch(function (e) {
    document.getElementById("h-err").textContent = String(e);
    document.getElementById("h-err").className = "stat err";
  });
  getJSON("/api/alerts").then(function (a) {
    var el = document.getElementById("a-firing");
    el.textContent = a.firing + " firing";
    el.className = "big " + (a.firing > 0 ? "state-firing" : "state-resolved");
    var body = document.querySelector("#a-table tbody");
    body.innerHTML = "";
    (a.alerts || []).forEach(function (al) {
      var tr = document.createElement("tr");
      var name = document.createElement("td");
      name.textContent = al.rule.name;
      var st = document.createElement("td");
      st.textContent = al.state;
      st.className = "state-" + al.state;
      var val = document.createElement("td");
      val.textContent = al.evaluable ? fmt(al.value, 3) : "–";
      tr.appendChild(name); tr.appendChild(st); tr.appendChild(val);
      body.appendChild(tr);
    });
  }).catch(function () {});
  getJSON("/api/timeseries?name=model_rows_scored_total&agg=rate&window=60s&span=15m")
    .then(function (ts) {
      var pts = (ts.series[0] || {}).points || [];
      // Sum the per-model rate series point-by-point when several models
      // have scored; the first series alone is right for the common case.
      document.getElementById("s-rate").textContent = fmt(lastV(ts.series), 3);
      spark("spark-rate", pts);
    }).catch(function () {});
  getJSON("/api/timeseries?name=prodigy_score_error&agg=quantile&q=0.99&window=120s&span=15m")
    .then(function (ts) {
      document.getElementById("s-p99").textContent = fmt(lastV(ts.series), 3);
      spark("spark-p99", (ts.series[0] || {}).points || []);
    }).catch(function () {});
  getJSON("/api/timeseries?name=http_request_duration_seconds&agg=quantile&q=0.99&window=120s&span=15m")
    .then(function (ts) {
      document.getElementById("s-http").textContent = fmt(lastV(ts.series), 3);
      spark("spark-http", (ts.series[0] || {}).points || []);
    }).catch(function () {});
}
refresh();
setInterval(refresh, 5000);
</script>
</body>
</html>
`
