//! Layer and network specifications.

use std::fmt;

use ucnn_tensor::ConvGeom;

/// Pooling flavor for [`LayerKind::Pool`] layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling (handled "with minimal additional logic … at the PE,
    /// with arithmetic disabled", §IV-E).
    Max,
    /// Average pooling.
    Avg,
}

/// What a [`LayerSpec`] computes.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerKind {
    /// A (possibly grouped) convolution. `groups > 1` splits input and
    /// output channels into independent convolutions (AlexNet conv2/4/5);
    /// the embedded [`ConvGeom`] describes **one** filter's view: its `C` is
    /// the per-group channel count.
    Conv {
        /// Per-filter geometry (C = channels seen by one filter).
        geom: ConvGeom,
        /// Number of channel groups (1 for ordinary convolution).
        groups: usize,
    },
    /// A fully connected layer, `in_features → out_features`. Executed as a
    /// 1×1×`in_features` convolution on a 1×1 spatial plane ("convolutions
    /// where input buffer slide reuse is disabled", §IV-E).
    FullyConnected {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
    },
    /// Spatial pooling; no weights.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window size (square).
        size: usize,
        /// Stride.
        stride: usize,
    },
}

/// One named layer of a network.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerSpec {
    name: String,
    kind: LayerKind,
}

impl LayerSpec {
    /// Creates a convolutional layer spec.
    #[must_use]
    pub fn conv(name: impl Into<String>, geom: ConvGeom) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Conv { geom, groups: 1 },
        }
    }

    /// Creates a grouped convolutional layer spec. `geom.c()` must already be
    /// the per-group channel count (e.g. 48 for AlexNet conv2).
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0` or `geom.k() % groups != 0`.
    #[must_use]
    pub fn grouped_conv(name: impl Into<String>, geom: ConvGeom, groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert!(
            geom.k().is_multiple_of(groups),
            "filter count {} not divisible by groups {groups}",
            geom.k()
        );
        Self {
            name: name.into(),
            kind: LayerKind::Conv { geom, groups },
        }
    }

    /// Creates a fully connected layer spec.
    #[must_use]
    pub fn fully_connected(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
    ) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::FullyConnected {
                in_features,
                out_features,
            },
        }
    }

    /// Creates a pooling layer spec.
    #[must_use]
    pub fn pool(name: impl Into<String>, kind: PoolKind, size: usize, stride: usize) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Pool { kind, size, stride },
        }
    }

    /// Layer name, e.g. `"conv2"` or `"M3L2"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What the layer computes.
    #[must_use]
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Returns the layer as a weight-bearing [`ConvLayer`] view, if it is one
    /// (convolution or fully connected). Pooling layers return `None`.
    #[must_use]
    pub fn as_conv(&self) -> Option<ConvLayer> {
        match self.kind {
            LayerKind::Conv { geom, groups } => Some(ConvLayer {
                name: self.name.clone(),
                geom,
                groups,
                is_fc: false,
            }),
            LayerKind::FullyConnected {
                in_features,
                out_features,
            } => {
                let geom = ConvGeom::new(1, 1, in_features, out_features, 1, 1);
                Some(ConvLayer {
                    name: self.name.clone(),
                    geom,
                    groups: 1,
                    is_fc: true,
                })
            }
            LayerKind::Pool { .. } => None,
        }
    }
}

/// A weight-bearing layer in the uniform representation consumed by the UCNN
/// compiler and the simulator: a (grouped) convolution.
///
/// Fully connected layers appear here as `1×1×C_in → K` convolutions with
/// [`ConvLayer::is_fc`] set (slide reuse disabled in the PE model).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvLayer {
    name: String,
    geom: ConvGeom,
    groups: usize,
    is_fc: bool,
}

impl ConvLayer {
    /// Builds a plain conv layer view (ungrouped, not FC).
    #[must_use]
    pub fn new(name: impl Into<String>, geom: ConvGeom) -> Self {
        Self {
            name: name.into(),
            geom,
            groups: 1,
            is_fc: false,
        }
    }

    /// Layer name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-filter geometry (its `C` is the per-group channel count).
    #[must_use]
    pub fn geom(&self) -> ConvGeom {
        self.geom
    }

    /// Channel-group count (1 = ordinary convolution).
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Whether this layer is a fully connected layer in conv clothing.
    #[must_use]
    pub fn is_fc(&self) -> bool {
        self.is_fc
    }

    /// Total input channels across all groups.
    #[must_use]
    pub fn total_in_channels(&self) -> usize {
        self.geom.c() * self.groups
    }

    /// Total input activation count (all groups).
    #[must_use]
    pub fn total_input_count(&self) -> usize {
        self.geom.in_w() * self.geom.in_h() * self.total_in_channels()
    }

    /// Total weight count across all filters (`R·S·C_per_group·K`).
    #[must_use]
    pub fn total_weight_count(&self) -> usize {
        self.geom.weight_count()
    }

    /// Total output activation count.
    #[must_use]
    pub fn total_output_count(&self) -> usize {
        self.geom.output_count()
    }

    /// Total dense MACs.
    #[must_use]
    pub fn total_macs(&self) -> usize {
        self.geom.macs()
    }
}

impl fmt::Display for ConvLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.name, self.geom)?;
        if self.groups > 1 {
            write!(f, " x{} groups", self.groups)?;
        }
        if self.is_fc {
            write!(f, " (fc)")?;
        }
        Ok(())
    }
}

/// An ordered list of named layers forming a network.
///
/// # Examples
///
/// ```
/// use ucnn_model::networks;
///
/// let resnet = networks::resnet50();
/// assert_eq!(resnet.name(), "ResNet-50");
/// assert_eq!(resnet.conv_layers().len(), 54); // 53 convs + final FC
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkSpec {
    name: String,
    layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates an empty network with a name. Add layers with
    /// [`NetworkSpec::push`].
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: LayerSpec) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Network name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers, in order.
    #[must_use]
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// The weight-bearing layers (convs + FCs as convs), in order.
    #[must_use]
    pub fn conv_layers(&self) -> Vec<ConvLayer> {
        self.layers.iter().filter_map(LayerSpec::as_conv).collect()
    }

    /// Finds a weight-bearing layer by name.
    #[must_use]
    pub fn conv_layer(&self, name: &str) -> Option<ConvLayer> {
        self.layers
            .iter()
            .find(|l| l.name() == name)
            .and_then(LayerSpec::as_conv)
    }

    /// Total weights across all weight-bearing layers.
    #[must_use]
    pub fn total_weights(&self) -> usize {
        self.conv_layers()
            .iter()
            .map(ConvLayer::total_weight_count)
            .sum()
    }

    /// Total dense MACs across all weight-bearing layers.
    #[must_use]
    pub fn total_macs(&self) -> usize {
        self.conv_layers().iter().map(ConvLayer::total_macs).sum()
    }
}

impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} layers):", self.name, self.layers.len())?;
        for layer in &self.layers {
            if let Some(conv) = layer.as_conv() {
                writeln!(f, "  {conv}")?;
            } else {
                writeln!(f, "  {} (pool)", layer.name())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fc_becomes_1x1_conv() {
        let spec = LayerSpec::fully_connected("fc6", 9216, 4096);
        let conv = spec.as_conv().unwrap();
        assert!(conv.is_fc());
        assert_eq!(conv.geom().c(), 9216);
        assert_eq!(conv.geom().k(), 4096);
        assert_eq!(conv.total_macs(), 9216 * 4096);
        assert_eq!(conv.total_weight_count(), 9216 * 4096);
    }

    #[test]
    fn pool_is_not_conv() {
        let spec = LayerSpec::pool("pool1", PoolKind::Max, 2, 2);
        assert!(spec.as_conv().is_none());
    }

    #[test]
    fn grouped_conv_channel_accounting() {
        // AlexNet conv2: 256 filters of 5×5×48, 2 groups, input 27×27×96.
        let geom = ConvGeom::new(27, 27, 48, 256, 5, 5).with_pad(2);
        let spec = LayerSpec::grouped_conv("conv2", geom, 2);
        let conv = spec.as_conv().unwrap();
        assert_eq!(conv.total_in_channels(), 96);
        assert_eq!(conv.total_weight_count(), 256 * 48 * 5 * 5);
        assert_eq!(conv.total_macs(), 27 * 27 * 256 * 5 * 5 * 48);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn grouped_conv_rejects_ragged_groups() {
        let geom = ConvGeom::new(8, 8, 4, 9, 3, 3);
        let _ = LayerSpec::grouped_conv("bad", geom, 2);
    }

    #[test]
    fn network_accumulates_totals() {
        let mut net = NetworkSpec::new("tiny");
        net.push(LayerSpec::conv("c1", ConvGeom::new(8, 8, 2, 4, 3, 3)));
        net.push(LayerSpec::pool("p1", PoolKind::Max, 2, 2));
        net.push(LayerSpec::fully_connected("fc", 36, 10));
        assert_eq!(net.conv_layers().len(), 2);
        assert_eq!(net.total_weights(), 4 * 2 * 9 + 360);
        assert!(net.conv_layer("c1").is_some());
        assert!(net.conv_layer("p1").is_none());
    }
}
