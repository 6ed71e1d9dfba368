//! One runner per paper figure, plus ablations.
//!
//! Each runner produces a serialisable, renderable result so the same code
//! path feeds the `fig*` binaries, the Criterion benches, and the
//! EXPERIMENTS.md regeneration.

pub mod ablation;
pub mod declustering;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod knn;
pub mod point_cloud;
pub mod rtree_packing;
pub mod storage_io;

use crate::mappings::MappingSet;
use crate::table::TextTable;
use serde::Serialize;
use slpm_linalg::Pool;
use spectral_lpm::LinearOrder;

/// One plotted series: `(x, y)` points with a label, e.g. "Hilbert".
#[derive(Debug, Clone, Serialize)]
pub struct FigureSeries {
    /// Series label (mapping name, possibly with a dimension suffix).
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

/// A reproduced figure: several series over a shared x-axis.
#[derive(Debug, Clone, Serialize)]
pub struct FigureData {
    /// Figure identifier, e.g. `"fig5a"`.
    pub id: String,
    /// Human title, e.g. `"Nearest neighbour worst case (5-D)"`.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The series, in the paper's legend order.
    pub series: Vec<FigureSeries>,
}

impl FigureData {
    /// Render as a table with one row per x value and one column per
    /// series — the textual equivalent of the paper's plot.
    pub fn to_table(&self) -> TextTable {
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.label.clone()));
        let mut table = TextTable::new(header);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let mut row = vec![format!("{x:.1}")];
            for s in &self.series {
                let y = s.points.get(i).map(|p| p.1).unwrap_or(f64::NAN);
                row.push(format!("{y:.2}"));
            }
            table.push_row(row);
        }
        table
    }

    /// Look up a series by label.
    pub fn series(&self, label: &str) -> Option<&FigureSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render the full figure (title + table).
    pub fn render(&self) -> String {
        format!(
            "== {} ({}) ==\n{} vs {}\n\n{}",
            self.title,
            self.id,
            self.y_label,
            self.x_label,
            self.to_table().render()
        )
    }

    /// Render as CSV (header: x, then one column per series) for external
    /// plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push('x');
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
        }
        out.push('\n');
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                let y = s.points.get(i).map(|p| p.1).unwrap_or(f64::NAN);
                out.push_str(&format!(",{y}"));
            }
            out.push('\n');
        }
        out
    }
}

/// One series per mapping of `set`, in the set's order. Mappings are
/// independent, so each series is computed as its own job on the default
/// pool; `points` computes metrics only and must not use a pool itself.
pub(crate) fn series_per_mapping<F>(set: &MappingSet, points: F) -> Vec<FigureSeries>
where
    F: Fn(&LinearOrder) -> Vec<(f64, f64)> + Sync,
{
    let mut slots: Vec<Vec<(f64, f64)>> = vec![Vec::new(); set.len()];
    let points = &points;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter_mut()
        .zip(set.iter())
        .map(|(slot, (_, order))| {
            Box::new(move || *slot = points(order)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    Pool::default().run_scoped(jobs);
    set.iter()
        .zip(slots)
        .map(|((label, _), points)| FigureSeries {
            label: label.to_string(),
            points,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        FigureData {
            id: "figX".into(),
            title: "Sample".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                FigureSeries {
                    label: "A".into(),
                    points: vec![(1.0, 2.0), (2.0, 4.0)],
                },
                FigureSeries {
                    label: "B".into(),
                    points: vec![(1.0, 3.0), (2.0, 9.0)],
                },
            ],
        }
    }

    #[test]
    fn table_has_row_per_x() {
        let rendered = sample().to_table().render();
        // Header, rule and one row per x.
        assert_eq!(rendered.lines().count(), 4);
        assert!(rendered.contains("A"));
        assert!(rendered.contains("9.00"));
    }

    #[test]
    fn series_lookup() {
        let f = sample();
        assert!(f.series("A").is_some());
        assert!(f.series("C").is_none());
    }

    #[test]
    fn render_includes_title() {
        assert!(sample().render().contains("Sample"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,A,B");
        assert_eq!(lines[1], "1,2,3");
        assert_eq!(lines[2], "2,4,9");
    }
}
