//! Trainable parameters that persist across training steps.

use crate::tensor::Tensor;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// A trainable tensor shared between the model that owns it and the autograd
/// tape / optimizer that update it.
///
/// `Param` is a cheaply clonable handle (`Arc` + mutex) to a value tensor and
/// its accumulated gradient. Lifting a `Param` onto a [`crate::Tape`] with
/// [`crate::Tape::param`] records a leaf node; [`crate::Tape::backward`]
/// accumulates gradients back into the `Param`, where an optimizer can read
/// and apply them.
///
/// # Example
///
/// ```
/// use pit_tensor::{Param, Tensor};
/// let p = Param::new(Tensor::zeros(&[3]), "bias");
/// p.accumulate_grad(&Tensor::ones(&[3]));
/// assert_eq!(p.grad().data(), &[1.0, 1.0, 1.0]);
/// p.zero_grad();
/// assert_eq!(p.grad().sum_all(), 0.0);
/// ```
#[derive(Clone)]
pub struct Param {
    inner: Arc<Mutex<ParamInner>>,
    name: Arc<String>,
}

struct ParamInner {
    value: Tensor,
    grad: Tensor,
    /// When `false` the parameter is skipped by optimizers (frozen).
    trainable: bool,
}

impl Param {
    /// Creates a new trainable parameter from an initial value.
    pub fn new(value: Tensor, name: impl Into<String>) -> Self {
        let grad = value.zeros_like();
        Self {
            inner: Arc::new(Mutex::new(ParamInner {
                value,
                grad,
                trainable: true,
            })),
            name: Arc::new(name.into()),
        }
    }

    /// The parameter's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot (clone) of the current value.
    pub fn value(&self) -> Tensor {
        self.inner.lock().value.clone()
    }

    /// A snapshot (clone) of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.inner.lock().grad.clone()
    }

    /// The shape of the parameter value.
    pub fn dims(&self) -> Vec<usize> {
        self.inner.lock().value.dims().to_vec()
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.inner.lock().value.len()
    }

    /// Returns `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrites the parameter value.
    ///
    /// # Panics
    ///
    /// Panics if the new value has a different shape from the current one.
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.inner.lock();
        assert!(
            inner.value.shape().same_as(value.shape()),
            "set_value: shape mismatch for parameter '{}': {} vs {}",
            self.name,
            inner.value.shape(),
            value.shape()
        );
        inner.value = value;
    }

    /// Adds `grad` to the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match the value shape.
    pub fn accumulate_grad(&self, grad: &Tensor) {
        let mut inner = self.inner.lock();
        inner
            .grad
            .add_assign(grad)
            .unwrap_or_else(|e| panic!("accumulate_grad on '{}': {e}", self.name));
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        self.inner.lock().grad.fill(0.0);
    }

    /// Returns `true` when the parameter should be updated by optimizers.
    pub fn trainable(&self) -> bool {
        self.inner.lock().trainable
    }

    /// Freezes or unfreezes the parameter (frozen parameters are skipped by
    /// optimizers but still participate in the forward pass).
    pub fn set_trainable(&self, trainable: bool) {
        self.inner.lock().trainable = trainable;
    }

    /// Applies an SGD-style in-place update `value -= lr * (grad + wd * value)`.
    pub fn sgd_step(&self, lr: f32, weight_decay: f32) {
        let mut inner = self.inner.lock();
        if !inner.trainable {
            return;
        }
        let ParamInner { value, grad, .. } = &mut *inner;
        for (v, g) in value.data_mut().iter_mut().zip(grad.data().iter()) {
            *v -= lr * (g + weight_decay * *v);
        }
    }

    /// Runs `f` with mutable access to the value and read access to the gradient.
    pub fn with_value_mut_and_grad<R>(&self, f: impl FnOnce(&mut Tensor, &Tensor) -> R) -> R {
        let mut inner = self.inner.lock();
        let ParamInner { value, grad, .. } = &mut *inner;
        f(value, grad)
    }

    /// Returns `true` if two handles refer to the same underlying parameter.
    pub fn same_param(&self, other: &Param) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Param")
            .field("name", &self.name)
            .field("shape", &inner.value.dims())
            .field("trainable", &inner.trainable)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[4]), "w");
        assert_eq!(p.grad().sum_all(), 0.0);
        assert_eq!(p.value().sum_all(), 4.0);
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn grad_accumulation_and_reset() {
        let p = Param::new(Tensor::zeros(&[2]), "w");
        p.accumulate_grad(&Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        p.accumulate_grad(&Tensor::from_vec(vec![0.5, 0.5], &[2]).unwrap());
        assert_eq!(p.grad().data(), &[1.5, 2.5]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn sgd_step_updates_value() {
        let p = Param::new(Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap(), "w");
        p.accumulate_grad(&Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap());
        p.sgd_step(0.1, 0.0);
        assert_eq!(p.value().data(), &[0.9, 1.1]);
    }

    #[test]
    fn frozen_param_skips_update() {
        let p = Param::new(Tensor::ones(&[1]), "w");
        p.accumulate_grad(&Tensor::ones(&[1]));
        p.set_trainable(false);
        p.sgd_step(1.0, 0.0);
        assert_eq!(p.value().data(), &[1.0]);
        assert!(!p.trainable());
    }

    #[test]
    fn clone_shares_storage() {
        let p = Param::new(Tensor::zeros(&[1]), "w");
        let q = p.clone();
        q.set_value(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        assert_eq!(p.value().data(), &[3.0]);
        assert!(p.same_param(&q));
        let r = Param::new(Tensor::zeros(&[1]), "w");
        assert!(!p.same_param(&r));
    }

    #[test]
    #[should_panic]
    fn set_value_shape_mismatch_panics() {
        let p = Param::new(Tensor::zeros(&[2]), "w");
        p.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn param_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Param>();
    }
}
