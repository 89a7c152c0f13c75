//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every differentiable operation as a node holding the
//! forward value, the indices of its parents and a backward closure. Calling
//! [`Tape::backward`] walks the nodes in reverse creation order, propagates
//! the adjoints and accumulates gradients into every [`Param`] leaf.
//!
//! The tape is the only owner of forward values. An op borrows its operands
//! while it computes its output, and its backward closure reads them from the
//! tape again: [`Tape::backward`] hands each closure its parents' values and
//! its own. A closure keeps only what the forward pass derived (saved
//! statistics, masks, loss residuals, scalars).
//!
//! A fresh tape is created for every forward pass (training step); parameters
//! persist outside the tape.

use crate::param::Param;
use crate::tensor::Tensor;

/// A handle to a node recorded on a [`Tape`].
///
/// `Var` is a plain index: it is only meaningful together with the tape that
/// produced it. Using a `Var` with a different tape is a logic error and will
/// either panic or silently reference the wrong node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node index inside its tape (mostly useful for debugging).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Backward closure: maps the adjoint of this node, the forward values of its
/// parents (in `parents` order) and its own forward value to the adjoints of
/// its parents (one tensor per parent, in the same order as `parents`).
///
/// The operands come from the tape, so a closure captures none of them.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor], &Tensor) -> Vec<Tensor>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<usize>,
    pub(crate) backward: Option<BackwardFn>,
    pub(crate) param: Option<Param>,
}

/// A gradient tape: records operations during the forward pass and replays
/// them in reverse to compute gradients.
///
/// # Example
///
/// ```
/// use pit_tensor::{Tape, Tensor, Param};
/// let w = Param::new(Tensor::from_vec(vec![2.0], &[1]).unwrap(), "w");
/// let mut tape = Tape::new();
/// let vw = tape.param(&w);
/// let sq = tape.mul(vw, vw);          // w^2
/// let loss = tape.sum(sq);
/// tape.backward(loss);
/// assert_eq!(w.grad().data(), &[4.0]); // d(w^2)/dw = 2w
/// ```
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant leaf (no gradient flows into it).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Vec::new(), None, None)
    }

    /// Records a parameter leaf. Gradients reaching this node during
    /// [`Tape::backward`] are accumulated into the [`Param`].
    pub fn param(&mut self, param: &Param) -> Var {
        self.push(param.value(), Vec::new(), None, Some(param.clone()))
    }

    /// The forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this tape.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// Shape of the forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this tape.
    pub fn dims(&self, var: Var) -> Vec<usize> {
        self.nodes[var.0].value.dims().to_vec()
    }

    pub(crate) fn push(
        &mut self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        param: Option<Param>,
    ) -> Var {
        self.nodes.push(Node {
            value,
            parents,
            backward,
            param,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a node with one parent; `backward` gets `(g, x, y)`: the
    /// adjoint, the parent's value and this node's value.
    pub(crate) fn push_unary(
        &mut self,
        parent: Var,
        value: Tensor,
        backward: impl Fn(&Tensor, &Tensor, &Tensor) -> Tensor + 'static,
    ) -> Var {
        self.push(
            value,
            vec![parent.0],
            Some(Box::new(move |g, xs, y| vec![backward(g, xs[0], y)])),
            None,
        )
    }

    /// Records a node with two parents; `backward` gets `(g, a, b)`: the
    /// adjoint and the parents' values.
    pub(crate) fn push_binary(
        &mut self,
        a: Var,
        b: Var,
        value: Tensor,
        backward: impl Fn(&Tensor, &Tensor, &Tensor) -> (Tensor, Tensor) + 'static,
    ) -> Var {
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(move |g, xs, _| {
                let (ga, gb) = backward(g, xs[0], xs[1]);
                vec![ga, gb]
            })),
            None,
        )
    }

    /// Records a node with three parents; `backward` gets `(g, a, b, c)`:
    /// the adjoint and the parents' values.
    pub(crate) fn push_ternary(
        &mut self,
        a: Var,
        b: Var,
        c: Var,
        value: Tensor,
        backward: impl Fn(&Tensor, &Tensor, &Tensor, &Tensor) -> (Tensor, Tensor, Tensor) + 'static,
    ) -> Var {
        self.push(
            value,
            vec![a.0, b.0, c.0],
            Some(Box::new(move |g, xs, _| {
                let (ga, gb, gc) = backward(g, xs[0], xs[1], xs[2]);
                vec![ga, gb, gc]
            })),
            None,
        )
    }

    /// Runs reverse-mode differentiation from `root`.
    ///
    /// The adjoint of `root` is seeded with ones (for the usual scalar-loss
    /// case this is the value 1.0). Gradients are **accumulated** into every
    /// [`Param`] recorded on the tape; call [`Param::zero_grad`] before the
    /// forward pass to start from zero.
    ///
    /// # Panics
    ///
    /// Panics if `root` does not belong to this tape.
    pub fn backward(&mut self, root: Var) {
        let seed = Tensor::ones(self.nodes[root.0].value.dims());
        self.backward_with_seed(root, seed);
    }

    /// Runs reverse-mode differentiation from `root` with an explicit seed
    /// adjoint (must have the same shape as the value of `root`).
    ///
    /// # Panics
    ///
    /// Panics if the seed shape does not match the value of `root`.
    pub fn backward_with_seed(&mut self, root: Var, seed: Tensor) {
        assert!(
            seed.shape().same_as(self.nodes[root.0].value.shape()),
            "backward seed shape {} does not match root value shape {}",
            seed.shape(),
            self.nodes[root.0].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[root.0] = Some(seed);
        let mut operands: Vec<&Tensor> = Vec::with_capacity(3);

        for i in (0..=root.0).rev() {
            let Some(grad) = grads[i].take() else {
                continue;
            };
            let node = &self.nodes[i];
            if let Some(backward) = &node.backward {
                operands.clear();
                operands.extend(node.parents.iter().map(|&p| &self.nodes[p].value));
                let parent_grads = backward(&grad, &operands, &node.value);
                assert_eq!(
                    parent_grads.len(),
                    node.parents.len(),
                    "backward closure returned {} gradients for {} parents",
                    parent_grads.len(),
                    node.parents.len()
                );
                for (&p, pg) in node.parents.iter().zip(parent_grads) {
                    match &mut grads[p] {
                        Some(existing) => existing
                            .add_assign(&pg)
                            .expect("gradient accumulation shape mismatch"),
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            if let Some(param) = &node.param {
                param.accumulate_grad(&grad);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_leaf_gets_no_gradient() {
        let p = Param::new(Tensor::from_vec(vec![3.0], &[1]).unwrap(), "p");
        let mut tape = Tape::new();
        let vp = tape.param(&p);
        let c = tape.constant(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let prod = tape.mul(vp, c);
        let loss = tape.sum(prod);
        tape.backward(loss);
        assert_eq!(p.grad().data(), &[2.0]);
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // loss = sum(x * x) where the same node is used twice.
        let p = Param::new(Tensor::from_vec(vec![3.0], &[1]).unwrap(), "p");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let sq = tape.mul(x, x);
        let loss = tape.sum(sq);
        tape.backward(loss);
        assert_eq!(p.grad().data(), &[6.0]);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let p = Param::new(Tensor::from_vec(vec![1.0], &[1]).unwrap(), "p");
        for _ in 0..2 {
            let mut tape = Tape::new();
            let x = tape.param(&p);
            let loss = tape.sum(x);
            tape.backward(loss);
        }
        assert_eq!(p.grad().data(), &[2.0]);
    }

    #[test]
    fn backward_with_seed_scales_gradient() {
        let p = Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(), "p");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let seed = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        tape.backward_with_seed(x, seed);
        assert_eq!(p.grad().data(), &[10.0, 20.0]);
    }

    #[test]
    #[should_panic]
    fn bad_seed_shape_panics() {
        let p = Param::new(Tensor::zeros(&[2]), "p");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        tape.backward_with_seed(x, Tensor::zeros(&[3]));
    }

    #[test]
    fn tape_len_tracks_nodes() {
        let mut tape = Tape::new();
        assert!(tape.is_empty());
        let a = tape.constant(Tensor::ones(&[1]));
        let _ = tape.push_unary(a, Tensor::ones(&[1]), |g, _, _| g.clone());
        assert_eq!(tape.len(), 2);
    }
}
